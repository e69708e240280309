"""Resampling: sequential and distributed (the paper's 3-phase scheme).

"In our scheme, the new samples selected are exact replicas of some of
the old samples, but occurring with multiplicities proportional to
their previous weights.  For distributed implementation, first
multiplicity factors for the particles of a given PE are calculated
locally (local [resampling]).  Then excess new particle values are
communicated to the other PEs to ensure that all PEs have the same
number of particles for the following iteration (intra-[resampling])."
(paper §5.3)

The distributed plan must be computed *identically* on every PE from
the exchanged partial weight sums — all functions here are
deterministic given their RNG, and :func:`allocate_targets` /
:func:`plan_exchanges` use only globally-shared information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "systematic_resample",
    "multinomial_resample",
    "multiplicities",
    "allocate_targets",
    "plan_exchanges",
    "local_resample",
]

#: below this many elements numpy's float64 sum is a plain left-to-right
#: loop from 0.0; from here on it sums pairwise in unrolled blocks
_PAIRWISE_BLOCK = 8


def systematic_resample(
    weights: Sequence[float],
    count: int,
    offset: float,
) -> np.ndarray:
    """Systematic resampling: ``count`` indices from ``weights``.

    ``offset`` in ``[0, 1)`` is the single random number of the scheme;
    passing it explicitly keeps every PE's draw identical when they
    share a seeded RNG.
    """
    w = np.asarray(weights, dtype=np.float64)
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    return _systematic_indices(w, _weight_total(w), count, offset)


def _weight_total(w: np.ndarray) -> float:
    """Validate a resampling weight vector and return its numpy sum.

    The negative-weight check costs one ``min`` reduction; only when
    that reads negative or NaN does the exact ``w < 0`` test run, so a
    NaN next to a negative weight still reports the negative one.  The
    finiteness check reads the sum, and scans the weights only when the
    sum is not finite: finite weights whose sum overflows pass, as
    before.
    """
    if w.ndim != 1 or w.shape[0] == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    if not w.min() >= 0 and (w < 0).any():
        raise ValueError("weights must be non-negative")
    total = float(w.sum())
    if not math.isfinite(total):
        bad = np.flatnonzero(~np.isfinite(w))
        if bad.size:
            index = int(bad[0])
            raise ValueError(
                f"weights must be finite, got {float(w[index])!r} at "
                f"index {index}"
            )
    return total


def _systematic_indices(
    w: np.ndarray, total: float, count: int, offset: float
) -> np.ndarray:
    """The draw of :func:`systematic_resample` from a weight vector
    ``w`` that :func:`_weight_total` validated and summed to ``total``
    (``count == 0`` gives an empty draw)."""
    if not 0.0 <= offset < 1.0:
        raise ValueError("offset must be in [0, 1)")
    if total <= 0:
        # Degenerate: uniform selection.
        return np.arange(count, dtype=np.int64) % w.shape[0]
    positions = np.arange(count, dtype=np.float64)
    positions += offset
    positions /= count
    # the ndarray methods np.cumsum/np.searchsorted forward to, called
    # directly (they skip numpy's Python dispatch layer)
    cumulative = w.cumsum()
    cumulative /= total
    cumulative[-1] = 1.0  # guard against rounding
    return cumulative.searchsorted(positions).astype(np.int64, copy=False)


def multinomial_resample(
    weights: Sequence[float],
    count: int,
    rng: np.random.RandomState,
) -> np.ndarray:
    """Multinomial resampling (the naive alternative, used in tests)."""
    w = np.asarray(weights, dtype=np.float64)
    total = w.sum()
    if total <= 0:
        return rng.randint(0, w.shape[0], size=count).astype(np.int64)
    return rng.choice(w.shape[0], size=count, p=w / total).astype(np.int64)


def multiplicities(indices: Sequence[int], population: int) -> np.ndarray:
    """Per-particle replica counts from resampled indices.

    Vectorized as one ``np.bincount`` — integer counting, so the result
    is exactly (not approximately) a per-element counting loop's.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= population):
        bad = idx[(idx < 0) | (idx >= population)][0]
        raise ValueError(f"index {bad} out of range")
    return np.bincount(idx, minlength=population).astype(np.int64)


def _float64_sum(values: List[float]) -> float:
    """``float(np.sum(values))``, bit for bit, for a list of floats.

    Below :data:`_PAIRWISE_BLOCK` elements numpy adds left to right
    starting from ``0.0``, which the loop repeats without building an
    array; longer lists go to numpy's pairwise sum.
    """
    if len(values) < _PAIRWISE_BLOCK:
        total = 0.0
        for value in values:
            total += value
        return total
    return float(np.sum(values))


def allocate_targets(partial_sums: Sequence[float], total_count: int) -> List[int]:
    """Per-PE resampled-particle targets from the exchanged weight sums.

    Largest-remainder allocation of ``total_count`` particles
    proportional to each PE's share of the total weight.  Deterministic
    (ties broken by PE index), so every PE computes the same vector.

    Runs on Python floats: every step is the float64 operation numpy
    would do, and the total is numpy's own sum (:func:`_float64_sum`).
    """
    sums = [float(s) for s in partial_sums]
    for s in sums:
        if s < 0:
            raise ValueError("partial weight sums must be non-negative")
    n_pes = len(sums)
    total = _float64_sum(sums)
    if not math.isfinite(total):
        for index, s in enumerate(sums):
            if not math.isfinite(s):
                raise ValueError(
                    f"partial weight sums must be finite, got {s!r} at "
                    f"index {index}"
                )
    if total <= 0:
        base = total_count // n_pes
        targets = [base] * n_pes
        for i in range(total_count - base * n_pes):
            targets[i] += 1
        return targets
    shares = [s / total * total_count for s in sums]
    floors = [math.floor(share) for share in shares]
    remainder = total_count - sum(floors)
    targets = list(floors)
    if remainder:
        order = sorted(
            range(n_pes), key=lambda i: (-(shares[i] - floors[i]), i)
        )
        for i in order[:remainder]:
            targets[i] += 1
    return targets


@dataclass(frozen=True)
class ExchangePlan:
    """Who ships how many particles to whom (identical on every PE)."""

    #: per-PE number of locally-resampled particles kept locally
    kept: Tuple[int, ...]
    #: flows[src][dst] = particles PE ``src`` sends to PE ``dst``
    flows: Tuple[Tuple[int, ...], ...]


def plan_exchanges(targets: Sequence[int], capacity: int) -> ExchangePlan:
    """Match surplus PEs to deficit PEs (greedy in PE order).

    ``targets[i]`` is PE i's locally-resampled count, ``capacity`` the
    per-PE particle budget (N/n).  Deterministic, so every PE derives
    the same flow matrix from the same targets.
    """
    n_pes = len(targets)
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    if sum(targets) != capacity * n_pes:
        raise ValueError(
            f"targets {list(targets)} do not sum to {capacity * n_pes}"
        )
    kept = [capacity if capacity < t else t for t in targets]
    flows = [[0] * n_pes for _ in range(n_pes)]
    # deficit PEs in index order as [pe, still needed]; ``head`` is the
    # first one not yet filled
    deficits = [[i, capacity - t] for i, t in enumerate(targets) if t < capacity]
    head = 0
    for src, target in enumerate(targets):
        remaining = target - capacity
        while remaining > 0:
            if head == len(deficits):
                raise RuntimeError("exchange plan imbalance (internal error)")
            dst, need = deficits[head]
            moved = min(remaining, need)
            flows[src][dst] += moved
            remaining -= moved
            if need - moved == 0:
                head += 1
            else:
                deficits[head][1] = need - moved
    return ExchangePlan(
        kept=tuple(kept),
        flows=tuple(tuple(row) for row in flows),
    )


def local_resample(
    particles: np.ndarray,
    weights: np.ndarray,
    target: int,
    offset: float,
) -> np.ndarray:
    """Resample ``target`` replicas from a PE's local population."""
    indices = systematic_resample(weights, target, offset)
    return np.asarray(particles, dtype=np.float64)[indices]
