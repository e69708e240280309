"""Data transports: point-to-point links, shared bus, ordered transactions.

The paper's SPI library uses dedicated point-to-point streaming links
(the default here), but notes that "adaptations of the methodology to
other scheduling models is feasible, and is an interesting topic for
further investigation".  Two such adaptations are provided:

* :class:`SharedBusTransport` — every transfer contends for one shared
  bus, arbitrated first-come-first-served with a per-transfer
  arbitration cost.  Cheap in wires, serialises all communication.
* :class:`OrderedBusTransport` — the *ordered-transaction* model
  (Sriram & Bhattacharyya): the bus grant sequence is fixed at compile
  time from the schedule, so no run-time arbitration is needed at all —
  but a transfer must wait for its slot even when the bus is idle.

All transports share one interface: ``send(channel_key, src_pe, dst_pe,
nbytes, now, deliver)`` where ``deliver`` runs when the last word lands.

Every transport is instrumented: besides the global ``messages`` /
``bytes`` totals it keeps a per-channel :class:`ChannelTraffic` record —
message/byte counts, **queueing delay** (cycles between the send request
and the wire accepting the message) and **contention time** (the part of
that wait caused by the medium being busy; for the ordered bus the
remainder is time spent waiting for the compile-time slot).  An optional
``observer`` (an :class:`~repro.observability.collector
.ObservabilityHub`) additionally receives every message's full life
record for trace arrows and the data-vs-sync byte split.  Transports
carry data messages only; control messages (acks, resynchronization
tokens) go straight onto a link through
:meth:`~repro.platform.interconnect.Link.send`.  A consumer is woken by
its channel's waitset when ``deliver`` runs, so the transport keeps no
waitset of its own.

The point-to-point transport also has an **uncontended fast path**: a
transfer whose link is idle and whose transfer time is zero cycles (an
ideal ``LinkSpec(setup_cycles=0, cycles_per_word=0)`` link) is delivered
inline, skipping the event-heap round trip entirely —
``fast_path_deliveries`` counts them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Hashable, Optional, Sequence, Tuple

from repro.platform.interconnect import Interconnect, LinkSpec
from repro.platform.simulator import Simulator

__all__ = [
    "ChannelTraffic",
    "PointToPointTransport",
    "SharedBusTransport",
    "OrderedBusTransport",
]


@dataclass
class ChannelTraffic:
    """Per-channel transport statistics."""

    messages: int = 0
    bytes: int = 0
    queueing_cycles: int = 0
    contention_cycles: int = 0


class _TransportStats:
    """Shared accounting mixin for every transport flavour."""

    def _init_stats(self, observer=None) -> None:
        self.messages = 0
        self.bytes = 0
        self.per_channel: Dict[Hashable, ChannelTraffic] = {}
        self.observer = observer
        #: wire transfers that served a collective connection
        self.collective_messages = 0
        #: branch deliveries fanned out of those collective transfers
        self.fan_out_deliveries = 0
        #: bytes avoided vs. sending every branch independently
        self.wire_bytes_saved = 0

    def _fan_out(
        self,
        parts: Sequence[Tuple[Hashable, int, int, Callable[[], None]]],
        wire_nbytes: int,
    ) -> Callable[[], None]:
        """Account one collective wire transfer of ``wire_nbytes``, the
        payload every branch of ``parts`` shares.  Returns the callback
        that delivers every branch.
        """
        logical = sum(nbytes for _, _, nbytes, _ in parts)
        self.collective_messages += 1
        self.fan_out_deliveries += len(parts)
        self.wire_bytes_saved += logical - wire_nbytes
        delivers = [deliver for _, _, _, deliver in parts]

        def deliver_all() -> None:
            for deliver in delivers:
                deliver()

        return deliver_all

    def _record(
        self,
        channel_key: Hashable,
        src_pe: int,
        dst_pe: int,
        nbytes: int,
        requested: int,
        started: int,
        arrived: int,
        contention: int,
    ) -> None:
        self.messages += 1
        self.bytes += nbytes
        traffic = self.per_channel.get(channel_key)
        if traffic is None:
            traffic = self.per_channel[channel_key] = ChannelTraffic()
        traffic.messages += 1
        traffic.bytes += nbytes
        traffic.queueing_cycles += started - requested
        traffic.contention_cycles += contention
        if self.observer is not None:
            self.observer.message(
                str(channel_key), "data", src_pe, dst_pe, nbytes, requested,
                started, arrived,
            )


class PointToPointTransport(_TransportStats):
    """Dedicated unidirectional links per PE pair (the SPI default)."""

    def __init__(
        self, sim: Simulator, interconnect: Interconnect, observer=None
    ) -> None:
        self.sim = sim
        self.interconnect = interconnect
        #: transfers delivered inline (idle zero-latency link): no event
        self.fast_path_deliveries = 0
        self._init_stats(observer)

    def send(
        self,
        channel_key: Hashable,
        src_pe: int,
        dst_pe: int,
        nbytes: int,
        now: int,
        deliver: Callable[[], None],
    ) -> None:
        start, arrival = self.interconnect.link(src_pe, dst_pe).reserve(
            now, nbytes
        )
        self._record(
            channel_key, src_pe, dst_pe, nbytes, now, start, arrival, start - now
        )
        if arrival <= self.sim.now:
            # Uncontended zero-latency transfer: deliver inline instead
            # of taking a heap round trip.  Consumers are still woken
            # through their waitsets, which defer re-evaluation to an
            # event at the current time, so ordering is unchanged.
            self.fast_path_deliveries += 1
            deliver()
            return
        self.sim.schedule_delivery(arrival, deliver, ("data", channel_key))

    def send_collective(
        self,
        group_key: Hashable,
        src_pe: int,
        parts: Sequence[Tuple[Hashable, int, int, Callable[[], None]]],
        now: int,
    ) -> None:
        """One collective firing: one wire transfer per destination PE.

        ``parts`` is ``[(channel_key, dst_pe, nbytes, deliver), ...]`` in
        branch order.  Branches bound for the same destination share one
        link transfer carrying the payload once, and the avoided bytes
        are credited to ``wire_bytes_saved``.
        """
        by_dst: Dict[int, list] = {}
        for part in parts:
            by_dst.setdefault(part[1], []).append(part)
        for dst_pe, group in by_dst.items():
            wire_nbytes = group[0][2]
            deliver_all = self._fan_out(group, wire_nbytes)
            link = self.interconnect.link(src_pe, dst_pe)
            start, arrival = link.reserve(now, wire_nbytes)
            self._record(
                f"{group_key}->PE{dst_pe}", src_pe, dst_pe, wire_nbytes, now,
                start, arrival, start - now,
            )
            if arrival <= self.sim.now:
                self.fast_path_deliveries += 1
                deliver_all()
                continue
            self.sim.schedule_delivery(
                arrival, deliver_all, ("data", group_key)
            )

    def capture_state(self, now: int) -> tuple:
        """Steady-state hash contribution (links are captured separately)."""
        return ()


class _Bus(_TransportStats):
    """A single shared medium: a collective is one transfer on it."""

    def send_collective(
        self,
        group_key: Hashable,
        src_pe: int,
        parts: Sequence[Tuple[Hashable, int, int, Callable[[], None]]],
        now: int,
    ) -> None:
        """One collective firing: one bus transfer for the whole fan-out.

        A bus is a natural broadcast medium — every consumer snoops the
        same transaction, so the payload crosses the wire once (the
        largest branch) regardless of how many PEs listen.  On the
        ordered bus the fan-out takes a single slot, keyed by the
        collective group, so the grant schedule stays one entry per send
        firing.
        """
        wire_nbytes = max(nbytes for _, _, nbytes, _ in parts)
        deliver_all = self._fan_out(parts, wire_nbytes)
        self.send(group_key, src_pe, parts[0][1], wire_nbytes, now, deliver_all)


class SharedBusTransport(_Bus):
    """One bus for everything, FCFS arbitration.

    Each transfer pays ``arbitration_cycles`` on top of the link cost
    and occupies the bus exclusively; concurrent requests queue in
    arrival order (ties broken deterministically by request sequence).
    """

    def __init__(
        self,
        sim: Simulator,
        spec: Optional[LinkSpec] = None,
        arbitration_cycles: int = 2,
        observer=None,
    ) -> None:
        if arbitration_cycles < 0:
            raise ValueError("arbitration_cycles must be >= 0")
        self.sim = sim
        self.spec = spec or LinkSpec()
        self.arbitration_cycles = arbitration_cycles
        self.busy_until = 0
        self._init_stats(observer)

    def send(
        self,
        channel_key: Hashable,
        src_pe: int,
        dst_pe: int,
        nbytes: int,
        now: int,
        deliver: Callable[[], None],
    ) -> None:
        contention = max(0, self.busy_until - now)
        start = max(now, self.busy_until) + self.arbitration_cycles
        arrival = start + self.spec.transfer_cycles(nbytes)
        self.busy_until = arrival
        self._record(
            channel_key, src_pe, dst_pe, nbytes, now, start, arrival, contention
        )
        self.sim.schedule_delivery(arrival, deliver, ("data", channel_key))

    def capture_state(self, now: int) -> tuple:
        """Steady-state hash contribution: remaining bus occupancy."""
        return (max(0, self.busy_until - now),)


class OrderedBusTransport(_Bus):
    """Ordered-transaction bus: the grant sequence is fixed offline.

    ``order`` is the cyclic sequence of channel keys in which transfers
    are granted (one entry per message per graph iteration, derived from
    the schedule).  A transfer request for the key at the head of the
    sequence is granted as soon as the bus frees — with **zero**
    arbitration cost, that is the model's selling point; a request out
    of turn waits until every earlier slot has been used.
    """

    def __init__(
        self,
        sim: Simulator,
        order: Sequence[Hashable],
        spec: Optional[LinkSpec] = None,
        observer=None,
    ) -> None:
        if not order:
            raise ValueError("transaction order must be non-empty")
        self.sim = sim
        self.order = list(order)
        self.spec = spec or LinkSpec()
        self.busy_until = 0
        self._cursor = 0
        self._pending: Dict[Hashable, Deque[Tuple]] = {}
        self._init_stats(observer)

    def send(
        self,
        channel_key: Hashable,
        src_pe: int,
        dst_pe: int,
        nbytes: int,
        now: int,
        deliver: Callable[[], None],
    ) -> None:
        if channel_key not in self.order:
            raise ValueError(
                f"channel {channel_key!r} is not in the compile-time "
                f"transaction order"
            )
        self._pending.setdefault(channel_key, deque()).append(
            (nbytes, deliver, now, src_pe, dst_pe)
        )
        self._drain(now)

    def _drain(self, now: int) -> None:
        while True:
            key = self.order[self._cursor]
            queue = self._pending.get(key)
            if not queue:
                return
            nbytes, deliver, requested, src_pe, dst_pe = queue.popleft()
            contention = max(0, self.busy_until - now)
            start = max(now, self.busy_until)  # no arbitration cost
            arrival = start + self.spec.transfer_cycles(nbytes)
            self.busy_until = arrival
            self._record(
                key, src_pe, dst_pe, nbytes, requested, start, arrival, contention
            )
            self.sim.schedule_delivery(arrival, deliver, ("data", key))
            self._cursor = (self._cursor + 1) % len(self.order)

    def capture_state(self, now: int) -> tuple:
        """Steady-state hash contribution: cursor, occupancy, queued sends."""
        pending = tuple(
            (
                str(key),
                tuple(
                    (nbytes, requested - now)
                    for nbytes, _deliver, requested, _src, _dst in queue
                ),
            )
            for key, queue in sorted(self._pending.items(), key=lambda i: str(i[0]))
            if queue
        )
        return (self._cursor, max(0, self.busy_until - now), pending)
