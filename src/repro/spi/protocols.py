"""SPI buffer-synchronization protocols: BBS and UBS (paper §4).

* **SPI_BBS** (bounded buffer synchronization) — used "if it can be
  guaranteed that a buffer will not exceed a predetermined size".  The
  guarantee comes from compile-time analysis (a feedback path in the
  schedule throttles the producer — the eq. 2 bound); at run time the
  sender writes into the receiver's circular buffer *without any
  reverse-direction message*.  The simulator still checks the guarantee:
  an overflow raises, because it would mean the static analysis (or the
  user-supplied capacity) was wrong, never that data was silently lost.

* **SPI_UBS** (unbounded buffer synchronization) — used "when it cannot
  be guaranteed statically that an IPC buffer will not overflow through
  any admissible sequence of send/receive operations".  The logical
  buffer is unbounded; the *physical* allocation is a window of
  ``window_tokens`` messages, and the receiver returns an
  **acknowledgment message** per consumed message so the sender never
  overruns the window.  These ack messages are exactly what the paper's
  resynchronization removes when they are redundant: a channel whose ack
  edge was proven redundant runs ack-free (``acks_enabled = False``)
  while keeping the same physical window, whose safety the redundancy
  proof guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Protocol", "ProtocolConfig", "ChannelFlowControl"]


class Protocol:
    """Protocol selector constants."""

    BBS = "SPI_BBS"
    UBS = "SPI_UBS"

    ALL = (BBS, UBS)


@dataclass(frozen=True)
class ProtocolConfig:
    """Per-channel protocol parameters resolved at compile time."""

    protocol: str
    capacity_tokens: int
    acks_enabled: bool

    def __post_init__(self) -> None:
        if self.protocol not in Protocol.ALL:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.capacity_tokens < 1:
            raise ValueError("capacity_tokens must be >= 1")
        if self.protocol == Protocol.BBS and self.acks_enabled:
            raise ValueError(
                "BBS never sends acknowledgments (its bound is static)"
            )


class ChannelFlowControl:
    """Run-time flow-control state of one channel's sender side.

    For UBS with acks: ``credits`` counts the free window slots; a send
    consumes one, an ack restores one, and the SPI_send guard blocks at
    zero.  For BBS (and ack-free UBS) the sender never blocks on
    credits — safety is the static analysis' job, and the receive-side
    :class:`~repro.platform.memory.BufferMemory` enforces it.
    """

    def __init__(self, config: ProtocolConfig) -> None:
        self.config = config
        #: the sender spends window credits (UBS with acks)
        self.uses_credits = (
            config.protocol == Protocol.UBS and config.acks_enabled
        )
        self._credits = config.capacity_tokens
        self.acks_received = 0
        self.sends = 0

    def can_send_n(self, n: int) -> bool:
        """Window room for a burst of ``n`` sends (batched dispatch)."""
        if n < 1:
            raise ValueError("burst size must be >= 1")
        if not self.uses_credits:
            return True
        return self._credits >= n

    def on_send(self) -> None:
        self.sends += 1
        if self.uses_credits:
            if self._credits <= 0:
                raise RuntimeError(
                    "protocol violation: send issued with zero credits"
                )
            self._credits -= 1

    def on_ack(self) -> None:
        self.acks_received += 1
        if self.uses_credits:
            if self._credits >= self.config.capacity_tokens:
                raise RuntimeError(
                    "protocol violation: more acks than outstanding sends"
                )
            self._credits += 1

    @property
    def credits(self) -> Optional[int]:
        return self._credits if self.uses_credits else None
