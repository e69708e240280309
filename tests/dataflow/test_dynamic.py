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

    def test_admits(self):
        rate = DynamicRate(8, minimum=2)
        assert rate.admits(2)
        assert rate.admits(8)
        assert not rate.admits(1)
        assert not rate.admits(9)

    def test_zero_minimum_allowed_explicitly(self):
        rate = DynamicRate(4, minimum=0)
        assert rate.admits(0)

    def test_clamp(self):
        rate = DynamicRate(8, minimum=2)
        assert rate.clamp(1) == 2
        assert rate.clamp(100) == 8
        assert rate.clamp(5) == 5

    def test_frozen(self):
        rate = DynamicRate(3)
        with pytest.raises(AttributeError):
            rate.bound = 5

