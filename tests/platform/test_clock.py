"""Unit tests for clock domains."""

import pytest

from repro.platform import ClockDomain, DEFAULT_CLOCK


class TestClockDomain:
    def test_default_is_100mhz(self):
        assert DEFAULT_CLOCK.frequency_mhz == 100.0

    def test_cycles_to_us(self):
        clock = ClockDomain(100.0)
        assert clock.cycles_to_us(100) == pytest.approx(1.0)
        assert clock.cycles_to_us(250) == pytest.approx(2.5)

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            ClockDomain(0)
        with pytest.raises(ValueError):
            ClockDomain(-5)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_CLOCK.frequency_mhz = 500
