"""Buffer memories with occupancy tracking.

Each SPI channel owns a receive-side buffer memory (the paper's
distributed-memory setting: the receiver's local RAM).  The memory
enforces its capacity — a bounded (BBS) buffer overflowing is a protocol
violation and raises — and records the high-water mark, which the VTS
soundness tests compare against the eq. 1/eq. 2 bounds.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["BufferMemory", "BufferOverflowError", "BufferUnderflowError"]


class BufferOverflowError(RuntimeError):
    """A bounded buffer was asked to hold more than its capacity."""


class BufferUnderflowError(RuntimeError):
    """More data was read from a buffer than it held."""


class BufferMemory:
    """A byte-accounted buffer, bounded or unbounded.

    ``capacity_bytes=None`` models the UBS case (logically unbounded —
    physically, the protocol's acknowledgments throttle the producer).
    """

    def __init__(self, name: str, capacity_bytes: Optional[int] = None) -> None:
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0 or None")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.occupancy_bytes = 0
        self.high_water_bytes = 0
        self.total_written_bytes = 0

    def can_accept(self, nbytes: int) -> bool:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if self.capacity_bytes is None:
            return True
        return self.occupancy_bytes + nbytes <= self.capacity_bytes

    def write(self, nbytes: int) -> None:
        if not self.can_accept(nbytes):
            raise BufferOverflowError(
                f"buffer {self.name!r}: write of {nbytes}B exceeds capacity "
                f"{self.capacity_bytes}B (occupancy {self.occupancy_bytes}B)"
            )
        self.occupancy_bytes += nbytes
        self.total_written_bytes += nbytes
        if self.occupancy_bytes > self.high_water_bytes:
            self.high_water_bytes = self.occupancy_bytes

    def read(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if nbytes > self.occupancy_bytes:
            raise BufferUnderflowError(
                f"buffer {self.name!r}: read of {nbytes}B exceeds occupancy "
                f"{self.occupancy_bytes}B"
            )
        self.occupancy_bytes -= nbytes

    def __repr__(self) -> str:
        cap = "inf" if self.capacity_bytes is None else str(self.capacity_bytes)
        return (
            f"BufferMemory({self.name!r}, {self.occupancy_bytes}/{cap}B, "
            f"high={self.high_water_bytes}B)"
        )
