"""Unit tests for sweep metrics."""

import pytest

from repro.analysis import speedups


class TestSpeedups:
    def test_relative_to_first(self):
        assert speedups([100.0, 50.0, 25.0]) == [1.0, 2.0, 4.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            speedups([])

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            speedups([0.0, 1.0])

