"""Interconnect model: point-to-point links between processing elements.

The SPI FPGA library connects PEs (and the I/O interface) with dedicated
streaming links (FSL-style FIFO channels in the System Generator
designs).  A link transfer costs

    setup_cycles + ceil(message_bytes / word_bytes) * cycles_per_word

and a link is *occupied* for the duration of a transfer, so transfers
sharing a link serialize — which is exactly what makes the I/O-interface
fan-out in the paper's figure 3 a serialization point.

Control messages (SPI acknowledgments and resynchronization tokens,
the MPI baseline's RTS/CTS handshake and its transfers) go on a link
through one call, :meth:`Link.send`; data messages of the SPI layer go
through a transport (:mod:`repro.platform.transport`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

__all__ = ["LinkSpec", "LINK_SPEC", "Link", "Interconnect"]


@dataclass(frozen=True)
class LinkSpec:
    """Static parameters of one link.

    ``cycles_per_word=0`` (with ``setup_cycles=0``) models an ideal
    zero-latency link: transfers complete in the same cycle they start.
    The kernel micro-benchmarks use this to isolate simulation-kernel
    overhead from link timing, and the point-to-point transport delivers
    such transfers inline (no event-heap round trip) when the link is
    uncontended.
    """

    setup_cycles: int = 4
    word_bytes: int = 4
    cycles_per_word: int = 1

    def __post_init__(self) -> None:
        if self.setup_cycles < 0:
            raise ValueError("setup_cycles must be >= 0")
        if self.word_bytes < 1:
            raise ValueError("word_bytes must be >= 1")
        if self.cycles_per_word < 0:
            raise ValueError("cycles_per_word must be >= 0")

    def transfer_cycles(self, message_bytes: int) -> int:
        """Occupancy of the link for one message of ``message_bytes``."""
        if message_bytes < 0:
            raise ValueError("message_bytes must be >= 0")
        words = -(-message_bytes // self.word_bytes)
        return self.setup_cycles + words * self.cycles_per_word


#: timing of every link, for SPI and for the MPI baseline alike
LINK_SPEC = LinkSpec()


class Link:
    """A point-to-point channel with serialized occupancy."""

    def __init__(self, src_pe: int, dst_pe: int, spec: LinkSpec) -> None:
        self.src_pe = src_pe
        self.dst_pe = dst_pe
        self.spec = spec
        self.busy_until = 0

    def reserve(self, now: int, message_bytes: int) -> Tuple[int, int]:
        """Reserve the link for a message starting no earlier than ``now``.

        Returns ``(start, arrival)`` where ``start`` is when the link
        begins transmitting (after any in-flight transfer drains) and
        ``arrival`` when the last word lands at the destination.
        """
        start = now if now > self.busy_until else self.busy_until
        arrival = start + self.spec.transfer_cycles(message_bytes)
        self.busy_until = arrival
        return start, arrival

    def send(
        self,
        sim,
        now: int,
        message_bytes: int,
        deliver: Callable[[], None],
        key: Tuple[str, Hashable],
        observer=None,
    ) -> None:
        """Put one message on the link and run ``deliver`` when it lands.

        ``key`` is ``(kind, channel)``: the steady-state tracker's
        in-flight key (the delivery is scheduled through
        :meth:`~repro.platform.simulator.Simulator.schedule_delivery`,
        which is plain ``sim.at`` when no tracker is armed) and, when an
        ``observer`` is given, the kind and channel of the message
        record it receives.
        """
        start, arrival = self.reserve(now, message_bytes)
        if observer is not None:
            observer.message(
                key[1], key[0], self.src_pe, self.dst_pe, message_bytes, now,
                start, arrival,
            )
        sim.schedule_delivery(arrival, deliver, key)


class Interconnect:
    """All links of a platform, created lazily per (src, dst) PE pair.

    Every link has ``default_spec``.  Links are unidirectional; the
    reverse direction is a distinct link.
    """

    def __init__(self, default_spec: Optional[LinkSpec] = None) -> None:
        self.default_spec = default_spec or LinkSpec()
        self._links: Dict[Tuple[int, int], Link] = {}

    def link(self, src_pe: int, dst_pe: int) -> Link:
        link = self._links.get((src_pe, dst_pe))
        if link is None:
            if src_pe == dst_pe:
                raise ValueError("no link is needed for same-PE communication")
            link = self._links[src_pe, dst_pe] = Link(
                src_pe, dst_pe, self.default_spec
            )
        return link

    @property
    def links(self) -> List[Link]:
        return list(self._links.values())

