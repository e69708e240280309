"""Reference resampling implementations, kept for the exactness tests.

These are the numpy-array versions :mod:`repro.apps.particle_filter
.resampling` shipped before its plan moved onto Python scalars, and the
per-element counting loop :func:`~repro.apps.particle_filter.resampling
.multiplicities` replaced.  The tests compare the library against them
value for value, and error for error (type, text and which check fires
first); ``benchmarks/bench_batching.py`` times the loop against the
vectorized count.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.apps.particle_filter.resampling import ExchangePlan


def systematic_resample(
    weights: Sequence[float],
    count: int,
    offset: float,
) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    if w.ndim != 1 or w.shape[0] == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    if not 0.0 <= offset < 1.0:
        raise ValueError("offset must be in [0, 1)")
    total = w.sum()
    if total <= 0:
        # Degenerate: uniform selection.
        return np.arange(count, dtype=np.int64) % w.shape[0]
    positions = (offset + np.arange(count)) / count
    cumulative = np.cumsum(w) / total
    cumulative[-1] = 1.0  # guard against rounding
    return np.searchsorted(cumulative, positions).astype(np.int64)


def multiplicities_loop(indices: Sequence[int], population: int) -> np.ndarray:
    counts = np.zeros(population, dtype=np.int64)
    for index in indices:
        if not 0 <= index < population:
            raise ValueError(f"index {index} out of range")
        counts[index] += 1
    return counts


def allocate_targets(partial_sums: Sequence[float], total_count: int) -> List[int]:
    sums = np.asarray(partial_sums, dtype=np.float64)
    if np.any(sums < 0):
        raise ValueError("partial weight sums must be non-negative")
    n_pes = sums.shape[0]
    total = sums.sum()
    if total <= 0:
        base = total_count // n_pes
        targets = [base] * n_pes
        for i in range(total_count - base * n_pes):
            targets[i] += 1
        return targets
    shares = sums / total * total_count
    floors = np.floor(shares).astype(np.int64)
    remainder = total_count - int(floors.sum())
    order = sorted(
        range(n_pes), key=lambda i: (-(shares[i] - floors[i]), i)
    )
    targets = floors.tolist()
    for i in order[:remainder]:
        targets[i] += 1
    return [int(t) for t in targets]


def plan_exchanges(targets: Sequence[int], capacity: int) -> ExchangePlan:
    n_pes = len(targets)
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    if sum(targets) != capacity * n_pes:
        raise ValueError(
            f"targets {list(targets)} do not sum to {capacity * n_pes}"
        )
    kept = [min(t, capacity) for t in targets]
    surplus = {i: targets[i] - capacity for i in range(n_pes) if targets[i] > capacity}
    deficit = {i: capacity - targets[i] for i in range(n_pes) if targets[i] < capacity}
    flows = [[0] * n_pes for _ in range(n_pes)]
    deficit_queue = sorted(deficit.items())
    for src in sorted(surplus):
        remaining = surplus[src]
        while remaining > 0:
            if not deficit_queue:
                raise RuntimeError("exchange plan imbalance (internal error)")
            dst, need = deficit_queue[0]
            moved = min(remaining, need)
            flows[src][dst] += moved
            remaining -= moved
            if need - moved == 0:
                deficit_queue.pop(0)
            else:
                deficit_queue[0] = (dst, need - moved)
    return ExchangePlan(
        kept=tuple(kept),
        flows=tuple(tuple(row) for row in flows),
    )
