"""Radix-2 iterative FFT (own implementation, no numpy.fft).

Actor ``B`` of the paper's application 1 "implements Fast Fourier
transform (FFT) operation on the input samples".  We implement the
classic decimation-in-time radix-2 algorithm: bit-reversal permutation
followed by log2(N) butterfly stages — the same structure a System
Generator FFT core realises, which is also what the cycle model
(:func:`fft_cycles`) charges.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "fft",
    "fft_batch",
    "power_spectrum",
    "power_spectrum_batch",
    "fft_cycles",
    "is_power_of_two",
]


def is_power_of_two(n: int) -> bool:
    """True for positive powers of two (1 counts)."""
    return n > 0 and (n & (n - 1)) == 0


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    indices = np.arange(n)
    reversed_indices = np.zeros(n, dtype=np.int64)
    for bit in range(bits):
        reversed_indices |= ((indices >> bit) & 1) << (bits - 1 - bit)
    return reversed_indices


def fft(samples: Sequence[complex]) -> np.ndarray:
    """Forward FFT of a power-of-two length sequence."""
    data = np.asarray(samples, dtype=np.complex128)
    n = data.shape[0]
    if not is_power_of_two(n):
        raise ValueError(f"FFT length must be a power of two, got {n}")
    if n == 1:
        return data.copy()
    out = data[_bit_reverse_indices(n)].copy()
    span = 2
    while span <= n:
        half = span // 2
        twiddles = np.exp(-2j * math.pi * np.arange(half) / span)
        for block in range(0, n, span):
            upper = out[block:block + half].copy()
            lower = out[block + half:block + span] * twiddles
            out[block:block + half] = upper + lower
            out[block + half:block + span] = upper - lower
        span *= 2
    return out


def fft_batch(frames: Sequence[Sequence[complex]]) -> np.ndarray:
    """Forward FFTs of ``(B, N)`` equal-length windows in one pass.

    The butterfly recursion is vectorized over the batch dimension
    *and* over same-stage blocks (a ``(B, N/span, span)`` reshape
    replaces the per-block Python loop).  Every element sees exactly
    the same operand pair in the same stage order as :func:`fft`, so
    each row is bit-identical to the scalar transform of that window.
    """
    data = np.atleast_2d(np.asarray(frames, dtype=np.complex128))
    b, n = data.shape
    if not is_power_of_two(n):
        raise ValueError(f"FFT length must be a power of two, got {n}")
    if n == 1:
        return data.copy()
    out = data[:, _bit_reverse_indices(n)].copy()
    span = 2
    while span <= n:
        half = span // 2
        twiddles = np.exp(-2j * math.pi * np.arange(half) / span)
        view = out.reshape(b, n // span, span)
        upper = view[:, :, :half].copy()
        lower = view[:, :, half:] * twiddles
        view[:, :, :half] = upper + lower
        view[:, :, half:] = upper - lower
        span *= 2
    return out


def power_spectrum(samples: Sequence[float]) -> np.ndarray:
    """``|FFT|^2`` of a real signal — the spectral view actor B exports."""
    return np.abs(fft(samples)) ** 2


def power_spectrum_batch(frames: Sequence[Sequence[float]]) -> np.ndarray:
    """``|FFT|^2`` of a batch of real windows (rows match
    :func:`power_spectrum` bit-for-bit, see :func:`fft_batch`)."""
    return np.abs(fft_batch(frames)) ** 2


def fft_cycles(n: int, cycles_per_butterfly: int = 4) -> int:
    """Hardware cycle model: ``(N/2) log2(N)`` butterflies plus I/O.

    A streaming radix-2 core performs one butterfly per
    ``cycles_per_butterfly`` cycles and needs one pass of N cycles for
    load/unload.
    """
    if not is_power_of_two(n):
        raise ValueError(f"FFT length must be a power of two, got {n}")
    stages = int(math.log2(n)) if n > 1 else 0
    return (n // 2) * stages * cycles_per_butterfly + n
