"""Crack-growth state-space model for failure prognosis.

The paper's application 2 tracks "crack failure length in the blades of
a turbine engine" with a particle filter (Orchard et al.).  The
production test data is not available, so we implement the standard
Paris–Erdogan fatigue model that such prognosis systems use:

    dL/dN = C * (beta * sqrt(L))^m        (crack growth per load cycle)

discretised per filter step with lognormal process noise, observed
through additive Gaussian measurement noise.  The filter code paths
(propagate / weight / resample / exchange) are identical to the paper's;
only the physical constants differ (substitution documented in
DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["CrackGrowthModel", "simulate_crack_history"]


@dataclass(frozen=True)
class CrackGrowthModel:
    """Paris-law crack growth with Gaussian length observations.

    Parameters
    ----------
    paris_c, paris_m:
        Paris-law constants (growth scale and exponent).
    stress_factor:
        ``beta`` in ``delta_K = beta * sqrt(L)``.
    cycles_per_step:
        Load cycles elapsed between two filter updates.
    process_noise:
        Std-dev of the multiplicative (lognormal) growth disturbance.
    measurement_noise:
        Std-dev of the additive observation noise (same unit as L, mm).
    initial_length, initial_spread:
        Prior over the initial crack length.
    """

    paris_c: float = 1.5e-4
    paris_m: float = 2.2
    stress_factor: float = 1.0
    cycles_per_step: float = 100.0
    process_noise: float = 0.05
    measurement_noise: float = 0.25
    initial_length: float = 2.0
    initial_spread: float = 0.3

    def propagate(self, lengths: np.ndarray, rng: np.random.RandomState) -> np.ndarray:
        """One prediction step for a particle population."""
        lengths = np.asarray(lengths, dtype=np.float64)
        if (lengths <= 0).any():
            raise ValueError("crack lengths must be positive")
        # c * (s * sqrt(L)) ** m * cycles, then L + growth * noise, as
        # in-place ufuncs on two fresh arrays (each product has the same
        # operands, so every element is bit-identical to the expression)
        growth = np.sqrt(lengths)
        growth *= self.stress_factor
        growth **= self.paris_m
        growth *= self.paris_c
        growth *= self.cycles_per_step
        noise = rng.randn(lengths.shape[0])
        noise *= self.process_noise
        np.exp(noise, out=noise)
        growth *= noise
        growth += lengths
        return growth

    def likelihood(self, observation: float, lengths: np.ndarray) -> np.ndarray:
        """Unnormalised Gaussian observation likelihood per particle."""
        lengths = np.asarray(lengths, dtype=np.float64)
        z = observation - lengths
        z /= self.measurement_noise
        # exp(-0.5 * z * z): the same two products, the second in place
        weights = z * -0.5
        weights *= z
        return np.exp(weights)

    def likelihood_batch(
        self, observations: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Likelihoods for a batch of observations in one vectorized pass.

        ``observations`` is ``(B,)`` and ``lengths`` ``(B, P)`` (one
        particle population per batched filter step); returns
        ``(B, P)``.  Row ``b`` is exactly
        ``likelihood(observations[b], lengths[b])`` — the expression is
        elementwise, so batching changes no summation order.
        """
        obs = np.asarray(observations, dtype=np.float64).reshape(-1, 1)
        lengths = np.atleast_2d(np.asarray(lengths, dtype=np.float64))
        if lengths.shape[0] != obs.shape[0]:
            raise ValueError(
                f"batch mismatch: {obs.shape[0]} observations, "
                f"{lengths.shape[0]} particle populations"
            )
        z = (obs - lengths) / self.measurement_noise
        return np.exp(-0.5 * z * z)

    def observe(self, length: float, rng: np.random.RandomState) -> float:
        """Draw a noisy measurement of the true length."""
        return length + self.measurement_noise * rng.randn()

    def initial_particles(
        self, count: int, rng: np.random.RandomState
    ) -> np.ndarray:
        """Sample the initial particle population from the prior."""
        if count < 1:
            raise ValueError("count must be >= 1")
        particles = self.initial_length + self.initial_spread * rng.randn(count)
        return np.clip(particles, 1e-3, None)


def simulate_crack_history(
    model: CrackGrowthModel,
    steps: int,
    seed: int = 7,
) -> Tuple[np.ndarray, np.ndarray]:
    """Ground-truth trajectory plus its noisy observations.

    Returns ``(true_lengths, observations)`` of ``steps`` entries each.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rng = np.random.RandomState(seed)
    true_lengths = np.zeros(steps)
    observations = np.zeros(steps)
    length = model.initial_length
    for k in range(steps):
        length = float(model.propagate(np.array([length]), rng)[0])
        true_lengths[k] = length
        observations[k] = model.observe(length, rng)
    return true_lengths, observations
