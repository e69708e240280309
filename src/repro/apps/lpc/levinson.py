"""Levinson–Durbin recursion — the Toeplitz-aware alternative to LU.

The paper's actor C "performs LU decomposition to find predictor
coefficients" — an O(M^3) general solver.  The normal equations of LPC
are Toeplitz, so the Levinson–Durbin recursion solves them in O(M^2)
and additionally yields the reflection coefficients (useful for
stability checks and lattice realisations).  This module provides the
recursion so the ablation bench can quantify what the general-solver
choice costs; both paths produce the same predictor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["LevinsonResult", "levinson_durbin", "levinson_cycles"]


@dataclass(frozen=True)
class LevinsonResult:
    """Output of the recursion."""

    #: predictor coefficients a[1..M] (same convention as lpc_coefficients)
    coefficients: np.ndarray
    #: reflection (PARCOR) coefficients k[1..M]
    reflection: np.ndarray
    #: final prediction-error power
    error_power: float


def levinson_durbin(
    autocorr: Sequence[float], order: int
) -> LevinsonResult:
    """Solve the LPC normal equations via Levinson–Durbin.

    ``autocorr`` holds ``r[0..order]`` (at least).  A degenerate frame
    (``r[0] <= 0``) yields the zero predictor, matching the LU path's
    degenerate behaviour.
    """
    r = np.asarray(autocorr, dtype=np.float64)
    if order < 1:
        raise ValueError("order must be >= 1")
    if r.shape[0] < order + 1:
        raise ValueError(
            f"need r[0..{order}], got {r.shape[0]} autocorrelation values"
        )
    if r[0] <= 0:
        return LevinsonResult(
            coefficients=np.zeros(order),
            reflection=np.zeros(order),
            error_power=0.0,
        )
    a = np.zeros(order + 1)
    a[0] = 1.0
    reflection = np.zeros(order)
    error = float(r[0])
    for m in range(1, order + 1):
        acc = r[m] + a[1:m] @ r[1:m][::-1]
        k = -acc / error
        reflection[m - 1] = k
        # a_new[i] = a[i] + k * a[m-i]
        a[1 : m + 1] = a[1 : m + 1] + k * a[m - 1 :: -1][: m]
        error *= 1.0 - k * k
        if error <= 0:
            error = 1e-12  # fully predictable frame
    # convert from prediction-polynomial to predictor convention
    return LevinsonResult(
        coefficients=-a[1:],
        reflection=reflection,
        error_power=error,
    )


def levinson_cycles(order: int, cycles_per_mac: int = 1) -> int:
    """Hardware cycle model: stage m costs ~2m MACs -> ~M^2 total."""
    if order < 1:
        raise ValueError("order must be >= 1")
    macs = order * (order + 1)  # sum of 2m
    return macs * cycles_per_mac + 4 * order  # divisions/updates
