"""Unit and property tests for the radix-2 FFT."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.lpc.fft import (
    fft,
    fft_cycles,
    is_power_of_two,
    power_spectrum,
)


class TestFft:
    def test_matches_numpy(self):
        rng = np.random.RandomState(0)
        for n in (1, 2, 8, 64, 256):
            x = rng.randn(n) + 1j * rng.randn(n)
            assert np.allclose(fft(x), np.fft.fft(x), atol=1e-9)

    def test_impulse_is_flat(self):
        x = np.zeros(16)
        x[0] = 1.0
        assert np.allclose(fft(x), np.ones(16), atol=1e-12)

    def test_dc_concentrates(self):
        spectrum = fft(np.ones(8))
        assert spectrum[0] == pytest.approx(8)
        assert np.allclose(spectrum[1:], 0, atol=1e-12)

    def test_single_tone_peaks_at_bin(self):
        n = 64
        tone = np.cos(2 * np.pi * 5 * np.arange(n) / n)
        ps = power_spectrum(tone)
        assert np.argmax(ps[: n // 2]) == 5

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            fft(np.zeros(12))

    @given(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, samples):
        """Energy is preserved (Parseval's theorem)."""
        x = np.asarray(samples)
        spectrum = fft(x)
        time_energy = np.sum(np.abs(x) ** 2)
        freq_energy = np.sum(np.abs(spectrum) ** 2) / x.shape[0]
        assert freq_energy == pytest.approx(time_energy, rel=1e-6, abs=1e-6)

    def test_linearity(self):
        rng = np.random.RandomState(2)
        a, b = rng.randn(32), rng.randn(32)
        assert np.allclose(fft(a + 2 * b), fft(a) + 2 * fft(b), atol=1e-9)


class TestCycleModel:
    def test_grows_n_log_n(self):
        assert fft_cycles(2) == 1 * 4 + 2
        assert fft_cycles(8) == 4 * 3 * 4 + 8
        assert fft_cycles(1024) > fft_cycles(512) * 2  # superlinear

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            fft_cycles(100)

    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(1024)
        assert not is_power_of_two(0)
        assert not is_power_of_two(12)
