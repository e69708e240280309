"""Clock domains: cycle <-> wall-clock conversion.

The paper reports execution times in microseconds on a Virtex-4 whose
board "could support a clock frequency of 500 MHz" but where "this
frequency could not be attained in most cases".  We default to the
100 MHz that System Generator designs of that era typically closed
timing at; the figure benchmarks expose the frequency as a parameter so
the absolute scale is explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ClockDomain", "DEFAULT_CLOCK"]


@dataclass(frozen=True)
class ClockDomain:
    """A clock with frequency in MHz."""

    frequency_mhz: float = 100.0

    def __post_init__(self) -> None:
        if self.frequency_mhz <= 0:
            raise ValueError("clock frequency must be positive")

    def cycles_to_us(self, cycles: float) -> float:
        """Convert a cycle count to microseconds."""
        return cycles / self.frequency_mhz


DEFAULT_CLOCK = ClockDomain(100.0)
