"""The observability hub: one object threaded through a simulated run.

The hub holds the inter-PE message log.  Transports and SPI tasks call
:meth:`ObservabilityHub.message` whenever a message (data, acknowledgment
or resynchronization token) is committed to a link; the hub keeps the
full record — enough to draw async arrows in the Chrome trace and to
split wire traffic into data vs synchronization at any granularity.
Its :class:`~repro.observability.metrics.MetricsRegistry` of link meters
is a view of that log, replayed from it when read.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from repro.observability.metrics import Counter, Histogram, MetricsRegistry

__all__ = ["MessageRecord", "ObservabilityHub"]


class MessageRecord(NamedTuple):
    """One message's life on the interconnect.

    ``requested`` is when the sender handed the message to the
    transport, ``started`` when the wire actually began carrying it
    (later under contention), ``arrived`` when the last word landed.
    """

    channel: str
    kind: str  # "data" | "ack" | "resync"
    src_pe: int
    dst_pe: int
    nbytes: int
    requested: int
    started: int
    arrived: int

    @property
    def queueing_cycles(self) -> int:
        """Cycles the message waited before the wire accepted it."""
        return self.started - self.requested

    @property
    def transfer_cycles(self) -> int:
        return self.arrived - self.started


class ObservabilityHub:
    """Message log + the link meters replayed from it, for one execution."""

    def __init__(self) -> None:
        self.messages: List[MessageRecord] = []

    def message(
        self,
        channel: str,
        kind: str,
        src_pe: int,
        dst_pe: int,
        nbytes: int,
        requested: int,
        started: int,
        arrived: int,
    ) -> None:
        """Record one committed link message."""
        self.messages.append(
            MessageRecord(
                channel, kind, src_pe, dst_pe, nbytes, requested, started,
                arrived,
            )
        )

    @property
    def registry(self) -> MetricsRegistry:
        """The ``link.messages``, ``link.bytes`` and
        ``link.queueing_cycles`` meters of the log, in log order.

        Each read replays the whole log into a fresh registry.
        """
        registry = MetricsRegistry()
        # the three link meters per ``(channel, kind)``, for this replay
        meters_of: Dict[Tuple[str, str], Tuple[Counter, Counter, Histogram]] = {}
        for channel, kind, _, _, nbytes, requested, started, _ in self.messages:
            meters = meters_of.get((channel, kind))
            if meters is None:
                meters = meters_of[channel, kind] = (
                    registry.counter("link.messages", channel=channel, kind=kind),
                    registry.counter("link.bytes", channel=channel, kind=kind),
                    registry.histogram("link.queueing_cycles", channel=channel),
                )
            count, volume, queueing = meters
            count.inc()
            volume.inc(nbytes)
            queueing.observe(started - requested)
        return registry

    def byte_split(self) -> dict:
        """Total wire bytes by message kind (data vs synchronization)."""
        split: dict = {}
        for record in self.messages:
            split[record.kind] = split.get(record.kind, 0) + record.nbytes
        return split
