"""Bounded dynamic-rate ports.

SDF forbids run-time variation of production/consumption rates.  The paper
handles a useful class of dynamic behaviour by *bounding* the variation:
a dynamic port declares an upper bound on its rate, and the VTS conversion
(:mod:`repro.dataflow.vts`) turns the varying rate into a *fixed* rate of
one variable-size packed token per firing.

This module provides the :class:`DynamicRate` annotation.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DynamicRate"]


@dataclass(frozen=True)
class DynamicRate:
    """A run-time varying token rate with a compile-time upper bound.

    Parameters
    ----------
    bound:
        Inclusive upper bound on the number of raw tokens produced or
        consumed in one firing.  Required: the paper's bounded-memory
        guarantee (eq. 1) depends on it.
    minimum:
        Inclusive lower bound (defaults to 1; a firing that moves zero
        tokens would break SDF-style precedence reasoning, so it is
        disallowed by default but may be enabled by passing ``minimum=0``
        for modelling purposes).
    """

    bound: int
    minimum: int = 1

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise ValueError(f"DynamicRate bound must be >= 1, got {self.bound}")
        if not 0 <= self.minimum <= self.bound:
            raise ValueError(
                f"DynamicRate minimum must be in [0, bound], got "
                f"minimum={self.minimum}, bound={self.bound}"
            )

    def admits(self, rate: int) -> bool:
        """True when ``rate`` is an admissible instantaneous rate."""
        return self.minimum <= rate <= self.bound

    def clamp(self, rate: int) -> int:
        """Clamp an arbitrary integer into the admissible range."""
        return max(self.minimum, min(self.bound, rate))

    def __repr__(self) -> str:
        return f"DynamicRate(bound={self.bound}, minimum={self.minimum})"
