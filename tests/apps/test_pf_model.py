"""Unit tests for the crack-growth model and sequential particle filter."""

import numpy as np
import pytest

from repro.apps.particle_filter import (
    CrackGrowthModel,
    FilterTrace,
    ParticleFilter,
    simulate_crack_history,
)


class TestCrackGrowthModel:
    def test_growth_is_monotone_in_length(self):
        # without process noise one step adds c * (s * sqrt(L))**m * cycles
        model = CrackGrowthModel(process_noise=0.0)
        lengths = np.array([1.0, 2.0, 4.0, 8.0])
        growth = model.propagate(lengths, np.random.RandomState(0)) - lengths
        assert np.all(np.diff(growth) > 0)

    def test_propagate_increases_lengths(self):
        model = CrackGrowthModel(process_noise=0.0)
        rng = np.random.RandomState(0)
        lengths = np.array([2.0, 3.0, 4.0])
        advanced = model.propagate(lengths, rng)
        assert np.all(advanced > lengths)

    def test_propagate_rejects_nonpositive(self):
        model = CrackGrowthModel()
        with pytest.raises(ValueError):
            model.propagate(np.array([0.0]), np.random.RandomState(0))

    def test_likelihood_peaks_at_observation(self):
        model = CrackGrowthModel()
        lengths = np.array([1.0, 2.0, 3.0])
        weights = model.likelihood(2.0, lengths)
        assert np.argmax(weights) == 1
        assert weights[1] == pytest.approx(1.0)

    def test_initial_particles_positive(self):
        model = CrackGrowthModel(initial_spread=5.0)
        particles = model.initial_particles(1000, np.random.RandomState(1))
        assert np.all(particles > 0)

    def test_history_deterministic_per_seed(self):
        model = CrackGrowthModel()
        t1, o1 = simulate_crack_history(model, steps=5, seed=3)
        t2, o2 = simulate_crack_history(model, steps=5, seed=3)
        assert np.array_equal(t1, t2)
        assert np.array_equal(o1, o2)

    def test_history_is_growing(self):
        model = CrackGrowthModel(process_noise=0.0)
        truth, _ = simulate_crack_history(model, steps=20, seed=4)
        assert np.all(np.diff(truth) > 0)


class TestSequentialFilter:
    def test_tracks_truth(self, crack_setup):
        model, truth, observations = crack_setup
        pf = ParticleFilter(model, n_particles=200, seed=11)
        trace = pf.run(observations)
        assert trace.rmse_against(truth) < 2 * model.measurement_noise

    def test_beats_raw_observations(self):
        """Filtering should beat using the noisy observation directly."""
        model = CrackGrowthModel(measurement_noise=0.5)
        truth, observations = simulate_crack_history(model, steps=40, seed=9)
        pf = ParticleFilter(model, n_particles=500, seed=11)
        trace = pf.run(observations)
        raw_rmse = float(np.sqrt(np.mean((observations - truth) ** 2)))
        assert trace.rmse_against(truth) < raw_rmse

    def test_more_particles_do_not_hurt(self, crack_setup):
        model, truth, observations = crack_setup
        small = ParticleFilter(model, n_particles=20, seed=2).run(observations)
        large = ParticleFilter(model, n_particles=500, seed=2).run(observations)
        assert large.rmse_against(truth) <= small.rmse_against(truth) * 1.5

    def test_resampling_resets_weights(self, crack_setup):
        model, _, observations = crack_setup
        pf = ParticleFilter(model, n_particles=50, seed=1)
        pf.step(observations[0])
        assert np.allclose(pf.weights, 1.0 / 50)

    def test_effective_sample_size_bounds(self, crack_setup):
        model, _, observations = crack_setup
        pf = ParticleFilter(model, n_particles=100, seed=1)
        trace = pf.run(observations)
        assert all(0 < n <= 100 for n in trace.effective_sample_sizes)

    def test_effective_sample_size_of_uniform_weights_is_n(self):
        pf = ParticleFilter(CrackGrowthModel(), n_particles=40, seed=1)
        assert pf.effective_sample_size() == pytest.approx(40.0)

    def test_effective_sample_size_of_one_heavy_particle_is_one(self):
        pf = ParticleFilter(CrackGrowthModel(), n_particles=40, seed=1)
        pf.weights = np.zeros(40)
        pf.weights[7] = 3.0
        assert pf.effective_sample_size() == pytest.approx(1.0)

    def test_effective_sample_size_of_zero_weights_is_zero(self):
        pf = ParticleFilter(CrackGrowthModel(), n_particles=40, seed=1)
        pf.weights = np.zeros(40)
        assert pf.effective_sample_size() == 0.0

    def test_minimum_particles(self):
        with pytest.raises(ValueError):
            ParticleFilter(CrackGrowthModel(), n_particles=1)

    def test_trace_length_mismatch_rejected(self):
        trace = FilterTrace(estimates=[1.0, 2.0])
        with pytest.raises(ValueError):
            trace.rmse_against([1.0])
