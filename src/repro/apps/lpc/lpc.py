"""Linear predictive coding: analysis, prediction error, quantisation.

The paper's application 1 is "LPC (linear predictive coding) based
acoustic data compression (ADC)": for each input frame, predictor
coefficients are generated, the prediction error (residual) is computed,
and the error plus coefficients are quantised — that quantised stream is
the compressed data.

The predictor solves the normal equations ``R a = r`` where ``R`` is the
Toeplitz autocorrelation matrix of the frame (via the LU actor —
:mod:`repro.apps.lpc.linalg`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.apps.lpc.linalg import SingularMatrixError, solve

__all__ = [
    "autocorrelation",
    "normal_equations",
    "lpc_coefficients",
    "predict",
    "prediction_error",
    "reconstruct",
    "Quantizer",
    "autocorr_cycles",
    "error_cycles",
]


def autocorrelation(frame: Sequence[float], lags: int) -> np.ndarray:
    """Biased autocorrelation ``r[0..lags]`` of one frame."""
    x = np.asarray(frame, dtype=np.float64)
    n = x.shape[0]
    if lags >= n:
        raise ValueError(f"need frame longer than {lags} samples, got {n}")
    return np.array([x[: n - k] @ x[k:] for k in range(lags + 1)])


def normal_equations(r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Toeplitz system ``R a = rhs`` from autocorrelation ``r[0..M]``."""
    order = r.shape[0] - 1
    matrix = np.empty((order, order))
    for i in range(order):
        for j in range(order):
            matrix[i, j] = r[abs(i - j)]
    return matrix, r[1 : order + 1]


def lpc_coefficients(
    frame: Sequence[float], order: int, regularization: float = 1e-9
) -> np.ndarray:
    """Predictor coefficients ``a[1..M]`` of one frame via LU solve.

    A tiny diagonal regularisation keeps pathological (e.g. silent)
    frames solvable; a genuinely singular system falls back to the
    zero predictor (the residual then equals the signal, which is the
    correct degenerate behaviour).
    """
    r = autocorrelation(frame, order)
    matrix, rhs = normal_equations(r)
    matrix = matrix + regularization * np.eye(order) * max(1.0, r[0])
    try:
        return solve(matrix, rhs)
    except SingularMatrixError:
        return np.zeros(order)


def predict(frame: Sequence[float], coefficients: np.ndarray) -> np.ndarray:
    """Predicted value of each sample from its ``M`` predecessors.

    Samples with fewer than ``M`` predecessors use the available ones
    (the frame-initial transient).
    """
    x = np.asarray(frame, dtype=np.float64)
    order = coefficients.shape[0]
    predicted = np.zeros_like(x)
    for i in range(x.shape[0]):
        history = min(i, order)
        if history:
            predicted[i] = coefficients[:history] @ x[i - history : i][::-1]
    return predicted



def prediction_error(frame: Sequence[float], coefficients: np.ndarray) -> np.ndarray:
    """The residual actor D computes: ``e[i] = x[i] - x_hat[i]``."""
    x = np.asarray(frame, dtype=np.float64)
    return x - predict(x, coefficients)


def reconstruct(error: Sequence[float], coefficients: np.ndarray) -> np.ndarray:
    """Invert :func:`prediction_error`: rebuild the frame from residual."""
    e = np.asarray(error, dtype=np.float64)
    order = coefficients.shape[0]
    x = np.zeros_like(e)
    for i in range(e.shape[0]):
        history = min(i, order)
        predicted = 0.0
        if history:
            predicted = coefficients[:history] @ x[i - history : i][::-1]
        x[i] = e[i] + predicted
    return x


@dataclass(frozen=True)
class Quantizer:
    """Uniform mid-tread quantiser over ``[-full_scale, full_scale]``."""

    bits: int = 8
    full_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.bits < 2 or self.bits > 24:
            raise ValueError("bits must be in [2, 24]")
        if self.full_scale <= 0:
            raise ValueError("full_scale must be positive")

    @property
    def levels(self) -> int:
        return 1 << self.bits

    @property
    def step(self) -> float:
        return 2.0 * self.full_scale / (self.levels - 1)

    def quantize(self, values: Sequence[float]) -> np.ndarray:
        """Real values -> integer codes (clipped to range)."""
        x = np.clip(np.asarray(values, dtype=np.float64),
                    -self.full_scale, self.full_scale)
        return np.round((x + self.full_scale) / self.step).astype(np.int64)

    def dequantize(self, codes: Sequence[int]) -> np.ndarray:
        """Integer codes -> reconstruction values."""
        q = np.asarray(codes, dtype=np.float64)
        if np.any(q < 0) or np.any(q >= self.levels):
            raise ValueError("code out of range for this quantizer")
        return q * self.step - self.full_scale


def autocorr_cycles(frame_size: int, order: int, cycles_per_mac: int = 1) -> int:
    """Cycle model: ``(M+1)`` inner products of ~``N`` MACs each."""
    return (order + 1) * frame_size * cycles_per_mac + frame_size


def error_cycles(samples: int, order: int, cycles_per_mac: int = 1) -> int:
    """Cycle model of actor D on ``samples`` samples: ``M`` MACs each.

    This is the per-PE hardware datapath of the paper's §5.2: a
    pipelined MAC chain computing one predicted sample per ``M`` cycles
    plus the subtraction, with a small fixed pipeline fill.
    """
    return samples * order * cycles_per_mac + samples + 8
