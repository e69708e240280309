"""Vectorized host kernels vs their per-firing references.

The batched accelerator dispatch runs one numpy-vectorized kernel over
B queued firings.  Where the vectorized form reproduces the exact
operand pairing of the scalar kernel (FFT butterflies, elementwise
likelihoods, integer bincount) the rows must be *bit-identical*.
"""

import numpy as np
import pytest

from repro.apps.lpc.actors import SpectralAnalyzer
from repro.apps.lpc.fft import (
    fft,
    fft_batch,
    power_spectrum,
    power_spectrum_batch,
)
from repro.apps.particle_filter.model import CrackGrowthModel
from repro.apps.particle_filter.resampling import multiplicities
from tests.resampling_reference import multiplicities_loop

RNG = np.random.default_rng(7)


def speech_frames(count, size):
    t = np.arange(size) / size
    return np.stack(
        [
            np.sin(2 * np.pi * (3 + k) * t)
            + 0.3 * RNG.standard_normal(size)
            for k in range(count)
        ]
    )


class TestFftBatch:
    def test_rows_bit_identical_to_scalar_fft(self):
        frames = RNG.standard_normal((8, 64)) + 1j * RNG.standard_normal(
            (8, 64)
        )
        batched = fft_batch(frames)
        for row, frame in zip(batched, frames):
            assert np.array_equal(row, fft(frame))

    def test_length_one(self):
        frames = np.array([[1.0 + 2j], [3.0 - 1j]])
        assert np.array_equal(fft_batch(frames), frames)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            fft_batch(np.zeros((2, 12)))

    def test_power_spectrum_rows_bit_identical(self):
        frames = speech_frames(5, 128)
        batched = power_spectrum_batch(frames)
        for row, frame in zip(batched, frames):
            assert np.array_equal(row, power_spectrum(frame))

    def test_analyzer_batch_matches_per_firing_kernel(self):
        # actor B zero-pads to the next power of two before the FFT;
        # the batched host kernel must reproduce that exactly
        analyzer = SpectralAnalyzer()
        frames = speech_frames(4, 100)  # pads to 128
        batched = analyzer.analyze_batch(frames)
        for row, frame in zip(batched, frames):
            out = analyzer.kernel(0, {"frame": [{"frame": frame}]})
            assert np.array_equal(row, out["analyzed"][0]["spectrum"])


class TestParticleFilterBatch:
    def test_likelihood_rows_bit_identical(self):
        # the expression is elementwise: batching changes no summation
        # order, so rows must match the scalar kernel exactly
        model = CrackGrowthModel()
        lengths = 1.0 + np.abs(RNG.standard_normal((5, 40)))
        observations = 1.0 + np.abs(RNG.standard_normal(5))
        batched = model.likelihood_batch(observations, lengths)
        for b in range(5):
            assert np.array_equal(
                batched[b], model.likelihood(observations[b], lengths[b])
            )

    def test_likelihood_batch_mismatch_rejected(self):
        model = CrackGrowthModel()
        with pytest.raises(ValueError, match="batch mismatch"):
            model.likelihood_batch(np.ones(3), np.ones((2, 10)))

    def test_multiplicities_exactly_match_loop(self):
        indices = RNG.integers(0, 100, size=500)
        assert np.array_equal(
            multiplicities(indices, population=100),
            multiplicities_loop(indices, population=100),
        )

    def test_multiplicities_empty(self):
        assert np.array_equal(
            multiplicities([], population=4),
            multiplicities_loop([], population=4),
        )

    def test_multiplicities_out_of_range_parity(self):
        for bad in ([5], [-1]):
            with pytest.raises(ValueError, match="out of range"):
                multiplicities(bad, population=5)
            with pytest.raises(ValueError, match="out of range"):
                multiplicities_loop(bad, population=5)
