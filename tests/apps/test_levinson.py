"""Unit tests for the Levinson–Durbin recursion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.lpc.levinson import levinson_cycles, levinson_durbin
from repro.apps.lpc.linalg import lu_cycles
from repro.apps.lpc.lpc import autocorrelation, lpc_coefficients
from repro.apps.lpc.signal_gen import SpeechLikeSource, ar_filter


class TestLevinson:
    def test_matches_lu_solution(self):
        """Both solvers answer the same normal equations."""
        frame = SpeechLikeSource(seed=5).samples(512)
        order = 8
        via_lu = lpc_coefficients(frame, order)
        r = autocorrelation(frame, order)
        via_levinson = levinson_durbin(r, order).coefficients
        assert np.allclose(via_levinson, via_lu, atol=1e-6)

    def test_recovers_ar_coefficients(self):
        truth = np.array([1.1, -0.5])
        rng = np.random.RandomState(6)
        signal = ar_filter(rng.randn(8192) * 0.1, truth)
        r = autocorrelation(signal, 2)
        result = levinson_durbin(r, 2)
        assert np.allclose(result.coefficients, truth, atol=0.05)

    def test_reflection_coefficients_stable_for_real_signal(self):
        frame = SpeechLikeSource(seed=7).samples(512)
        result = levinson_durbin(autocorrelation(frame, 10), 10)
        # minimum phase: every reflection coefficient inside (-1, 1)
        assert np.all(np.abs(result.reflection) < 1.0)

    def test_error_power_decreases_with_order(self):
        frame = SpeechLikeSource(seed=8).samples(1024)
        r = autocorrelation(frame, 12)
        errors = [
            levinson_durbin(r, order).error_power for order in (1, 4, 8, 12)
        ]
        assert errors == sorted(errors, reverse=True)

    def test_degenerate_frame(self):
        result = levinson_durbin(np.zeros(5), 4)
        assert np.allclose(result.coefficients, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            levinson_durbin([1.0, 0.5], 3)  # too few lags
        with pytest.raises(ValueError):
            levinson_durbin([1.0, 0.5], 0)

    @given(order=st.integers(1, 12), seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_agreement_property(self, order, seed):
        """LU and Levinson agree on random well-conditioned frames."""
        rng = np.random.RandomState(seed)
        frame = ar_filter(rng.randn(512), np.array([0.6, -0.2]))
        via_lu = lpc_coefficients(frame, order)
        via_lev = levinson_durbin(
            autocorrelation(frame, order), order
        ).coefficients
        assert np.allclose(via_lev, via_lu, atol=1e-4)


class TestCycleModel:
    def test_quadratic_vs_cubic(self):
        """The design-choice ablation: Levinson's O(M^2) beats LU's
        O(M^3) for every realistic order, and the gap widens."""
        for order in (4, 8, 16, 32):
            assert levinson_cycles(order) < lu_cycles(order)
        gap8 = lu_cycles(8) / levinson_cycles(8)
        gap32 = lu_cycles(32) / levinson_cycles(32)
        assert gap32 > gap8

    def test_validation(self):
        with pytest.raises(ValueError):
            levinson_cycles(0)
