"""Unit tests for dynamic-rate annotations."""

import pytest

from repro.dataflow import DynamicRate


class TestDynamicRate:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            DynamicRate(0)
        with pytest.raises(ValueError):
            DynamicRate(5, minimum=6)
        with pytest.raises(ValueError):
            DynamicRate(5, minimum=-1)

    def test_zero_minimum_allowed_explicitly(self):
        assert DynamicRate(4, minimum=0).minimum == 0

    def test_frozen(self):
        rate = DynamicRate(3)
        with pytest.raises(AttributeError):
            rate.bound = 5

