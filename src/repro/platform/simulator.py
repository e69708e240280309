"""Discrete-event simulation kernel with self-timed PE sequencers.

The kernel is deliberately small: a time-ordered event heap plus a
park/wake discipline for sequencers.

* A **firing program** is one PE's cyclic list of :class:`Op` records —
  computation firings, SPI_init, SPI (or MPI baseline) sends and
  receives — built once per run.
* A **sequencer** interprets one PE's program: it runs the ops in
  order, starting each as soon as its guard holds (this *is* the
  self-timed execution model of the paper: assignment and order are
  fixed at compile time, firing instants resolve at run time from data
  availability).
* When an op's guard fails the sequencer parks on the :class:`Waitset`
  objects of the resources it is blocked on (a starved channel, an
  empty sync pool, an exhausted credit window) and is woken **only**
  when one of them signals.

A state change therefore touches exactly the sequencers that can make
progress.  Wakeups are delivered through the event heap at the current
simulation time, after the mutating event completes, in subscription
order.

Every sequencer registers with its :class:`Simulator`.  When the event
heap drains while a sequencer is not done — parked on a failed guard,
or running an event-completed op (a rendezvous send) whose completion
never comes — the run raises :class:`SimulationDeadlock` with a
description of every blocked op, invaluable when a protocol is
mis-wired.  If a parked sequencer's guard actually *holds* at deadlock
time, or a blocked op names no waitset to wait on, the kernel raises
:class:`LostWakeupError` instead: nothing would ever wake that
sequencer, which is a kernel-integration bug, never an application
deadlock.  ``Simulator(check_lost_wakeups=True)`` (used by the
conformance oracles) additionally audits every wakeup round for
ready-but-unwoken sequencers instead of waiting for the deadlock.
"""

from __future__ import annotations

import heapq
import itertools
from heapq import heappush as _heappush
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.platform.pe import ProcessingElement

__all__ = [
    "Op",
    "Waitset",
    "Simulator",
    "PESequencer",
    "SimulationDeadlock",
    "LostWakeupError",
]


class SimulationDeadlock(RuntimeError):
    """All sequencers blocked with no pending events."""


class LostWakeupError(RuntimeError):
    """A parked sequencer can never be woken.

    Raised when a sequencer parked on waitsets has a passing guard but
    was never woken — i.e. some resource mutation forgot to call
    :meth:`Waitset.wake` — or when a blocked op names no waitset at
    all.  This is a kernel/resource integration bug, and is
    kept distinct from :class:`SimulationDeadlock` (a property of the
    simulated application) so conformance campaigns can tell them apart.
    """


class Waitset:
    """Sequencers parked on one resource, woken when it changes state.

    A resource (channel, sync pool, FIFO, transport) owns one waitset
    per unblocking condition — e.g. an SPI channel has a *data* waitset
    (a message arrived, the receiver may proceed) and a *space* waitset
    (an ack restored a credit, the sender may proceed).  Subscriptions
    are epoch-stamped: a sequencer that parks on several waitsets and is
    woken through one leaves stale entries in the others, which
    :meth:`wake` discards by comparing epochs.
    """

    __slots__ = ("name", "waiters")

    def __init__(self, name: str = "") -> None:
        self.name = name
        #: ``(sequencer, epoch)`` subscriptions, live or stale; a hot
        #: resource tests it to skip :meth:`wake` when nobody waits
        self.waiters: List[Tuple["PESequencer", int]] = []

    def __len__(self) -> int:
        return len(self.waiters)

    def subscribe(self, sequencer: "PESequencer") -> None:
        self.waiters.append((sequencer, sequencer.wait_epoch))

    def wake(self) -> None:
        """Schedule a wakeup for every live subscriber."""
        if not self.waiters:
            return
        waiters, self.waiters = self.waiters, []
        for sequencer, epoch in waiters:
            if sequencer.wait_epoch == epoch:
                sequencer.sim._schedule_wake(sequencer)

    def __repr__(self) -> str:
        return f"Waitset({self.name!r}, waiters={len(self.waiters)})"


class Simulator:
    """Event heap + the registry of every sequencer it drives.

    ``check_lost_wakeups`` audits every wakeup round for ready-but-
    unwoken parked sequencers (see :class:`LostWakeupError`).
    """

    def __init__(self, check_lost_wakeups: bool = False) -> None:
        self.now = 0
        self.check_lost_wakeups = check_lost_wakeups
        self._heap: List[Tuple[int, int, Callable[[], None]]] = []
        #: optional steady-state tracker (see
        #: :mod:`repro.platform.steady_state`): while armed, message
        #: deliveries routed through :meth:`schedule_delivery` are
        #: mirrored into its in-flight multiset for state hashing
        self.state_probe = None
        self._seq = itertools.count()
        #: every sequencer built on this simulator, in construction order
        self.sequencers: List["PESequencer"] = []
        self._wake_queue: List["PESequencer"] = []
        self._wake_scheduled = False
        #: kernel counters (observability: exported into the metrics JSON)
        self.events_processed = 0
        self.parks = 0
        #: sequencer re-evaluations delivered through a waitset
        self.targeted_wakeups = 0
        #: wakeups whose guard still failed — the sequencer re-parked
        #: without progress
        self.spurious_wakeups = 0

    @property
    def total_wakeups(self) -> int:
        return self.targeted_wakeups

    # -- events ---------------------------------------------------------------

    def at(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past ({time} < now {self.now})"
            )
        heapq.heappush(self._heap, (time, next(self._seq), callback))

    def after(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError("delay must be >= 0")
        self.at(self.now + delay, callback)

    def schedule_delivery(
        self, arrival: int, deliver: Callable[[], None], key
    ) -> None:
        """Schedule a message delivery, visible to the steady-state probe.

        Identical to :meth:`at` when no tracker is armed (the common
        case — one conditional on the send path).  With an armed
        tracker the delivery is registered in its in-flight multiset
        under ``key`` (e.g. ``("data", channel)``, ``("ack", channel)``,
        ``("resync", pool)``) so state hashes account for every message
        still on the wire; the entry is removed when the event fires.
        """
        probe = self.state_probe
        if probe is None or not probe.armed:
            self.at(arrival, deliver)
            return
        probe.track(key, arrival)

        def tracked() -> None:
            probe.untrack(key, arrival)
            deliver()

        self.at(arrival, tracked)

    # -- parking / wakeups ------------------------------------------------------

    def park(
        self, sequencer: "PESequencer", waitsets: Sequence[Waitset]
    ) -> None:
        """Park ``sequencer`` until one of ``waitsets`` signals."""
        if sequencer.parked:
            return
        if not waitsets:
            raise LostWakeupError(
                f"{sequencer.pe.name}: task {sequencer.current.name!r} is "
                f"blocked at t={self.now} but names no waitset to wake it"
            )
        sequencer.parked = True
        self.parks += 1
        for waitset in waitsets:
            waitset.subscribe(sequencer)

    def _schedule_wake(self, sequencer: "PESequencer") -> None:
        """Queue a wakeup; coalesces duplicates per round."""
        if sequencer.wake_pending or not sequencer.parked:
            return
        sequencer.wake_pending = True
        self._wake_queue.append(sequencer)
        if not self._wake_scheduled:
            self._wake_scheduled = True
            _heappush(self._heap, (self.now, next(self._seq), self._drain_wakes))

    def _drain_wakes(self) -> None:
        self._wake_scheduled = False
        queue, self._wake_queue = self._wake_queue, []
        for sequencer in queue:
            sequencer.wake_pending = False
            self.targeted_wakeups += 1
            sequencer._woken = True
            sequencer.advance()
        if self.check_lost_wakeups:
            self._audit_wakeups()

    def _audit_wakeups(self) -> None:
        """Assert no parked sequencer is ready but unwoken."""
        for sequencer in self.sequencers:
            if sequencer.wake_pending or not sequencer.parked:
                continue
            if sequencer.ready(self.now):
                raise LostWakeupError(
                    f"{sequencer.pe.name}: task {sequencer.current.name!r} "
                    f"became ready at t={self.now} but no waitset woke its "
                    f"sequencer (lost wakeup)"
                )

    # -- main loop ---------------------------------------------------------------

    def run(self, max_cycles: Optional[int] = None) -> int:
        """Drain the event heap; returns the final simulation time.

        ``max_cycles`` guards against runaway simulations (raises
        ``RuntimeError`` when exceeded).  Raises
        :class:`SimulationDeadlock` (or :class:`LostWakeupError`) when
        the heap drains before every sequencer is done.
        """
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        try:
            if max_cycles is None:
                while heap:
                    time, _, callback = pop(heap)
                    self.now = time
                    processed += 1
                    callback()
            else:
                while heap:
                    time, _, callback = pop(heap)
                    if time > max_cycles:
                        raise RuntimeError(
                            f"simulation exceeded max_cycles={max_cycles} "
                            f"(next event at {time})"
                        )
                    self.now = time
                    processed += 1
                    callback()
        finally:
            self.events_processed += processed
        blocked = [s for s in self.sequencers if not s.done]
        if blocked:
            blocked.sort(key=lambda s: s.pe.index)
            for sequencer in blocked:
                if not sequencer._running and sequencer.ready(self.now):
                    raise LostWakeupError(
                        f"{sequencer.pe.name}: task "
                        f"{sequencer.current.name!r} is ready at t={self.now} "
                        f"but its sequencer was never woken (lost wakeup)"
                    )
            details = "; ".join(s.describe_block() for s in blocked)
            raise SimulationDeadlock(
                f"simulation deadlocked at t={self.now}: {details}"
            )
        return self.now


#: op kinds of a firing program (see :class:`Op`)
INIT, FIRE, SEND, RECV = range(4)


class Op:
    """One record of a PE's firing program: what one dispatch does.

    A firing program is a PE's per-iteration list of op records, built
    once per run (:func:`repro.spi.actors.wire_ops`).  An actor that
    fires several times per iteration occupies several entries that
    share one record, whose ``index`` counts its logical firings.  The
    :class:`PESequencer` interprets the records by ``kind``; each kind
    is a fixed sequence of the ops *guard*, *consume*, *compute*,
    *produce*, *send*, *recv* and *init*:

    * ``INIT`` (SPI_init) is always ready and costs ``cycles`` on its
      first dispatch and nothing afterwards.
    * ``FIRE`` guards on ``guard`` (``(fifo, rate)`` per member edge of
      every connected input), consumes through ``pops`` (``(port, fifo,
      rate, members, connection)``: a port with one plain member pops
      it, a collective port assembles its ``members``), computes with
      ``actor.fire`` and produces through ``pushes`` (``(port, fifo)``).
    * ``SEND`` guards on its input ``fifo`` holding ``rate`` tokens and
      on the send window of every ``credited`` channel, consumes one
      message of tokens, charges every flow in ``flows`` and, at completion,
      delivers ``local`` branch fifos and sends every ``remote`` ``(ipc
      edge, channel)`` branch through ``wire``: one ``wire.send`` for a
      point-to-point send, one ``wire.send_collective`` keyed by
      ``group`` for a collective broadcast.
      A channel turns a payload into its wire bytes and delivery with
      ``channel.package(payload)``.  A ``rendezvous`` send hands the
      whole transfer to its channel at start and produces nothing at
      completion.
    * ``RECV`` guards on ``channel.receive_ready(n)`` and at completion
      moves each message into ``fifo`` with ``channel.receive_into``
      (which also sends the channel's acknowledgment, if any).

    Cost: ``cycles`` when static, else ``cost(...)`` when the layer
    prices the op itself (``cost(now, tokens, done)`` for a send,
    ``cost(now, done)`` for a receive; ``None`` means event-completed,
    and ``done`` must then be called), else ``actor.execution_cycles``.

    A **burst** is a count on the same ops: ``counts`` holds the firings
    per macro-pass of a batched run (the sequencer's iteration is the
    macro-pass), and a FIRE, SEND or RECV op on an accelerator or with
    ``counts`` runs its burst atomically at the PE class's amortized
    cost; the sequencer sets ``single`` on the others, and ``classic``
    on a single FIRE op without sync layers, whose whole firing it
    interprets inline.  ``sync`` lists resynchronization layers,
    outermost first (see :class:`repro.spi.actors.SyncLayer`): each
    guards on and consumes its pools, and deposits into its notified
    pools after the op completes, on the invocations its phase selects.
    """

    __slots__ = (
        "kind", "name", "index", "staged", "sync", "actor", "cycles",
        "cost", "guard", "pops", "pushes", "fifo", "rate", "flows",
        "credited", "remote", "local", "wire", "group",
        "rendezvous", "channel", "counts", "single", "classic",
    )

    def __init__(
        self, kind: int, name: str, *, actor=None, cycles=None, cost=None,
        guard=(), pops=(), pushes=(), fifo=None, rate=0, flows=(),
        credited=(), remote=(), local=(), wire=None,
        group=None, rendezvous=False, channel=None, counts=None,
    ) -> None:
        self.kind = kind
        self.name = name
        self.index = 0
        self.staged = None
        self.sync = None
        self.actor = actor
        self.cycles = cycles
        self.cost = cost
        self.guard = guard
        self.pops = pops
        self.pushes = pushes
        self.fifo = fifo
        self.rate = rate
        self.flows = flows
        self.credited = credited
        self.remote = remote
        self.local = local
        self.wire = wire
        self.group = group
        self.rendezvous = rendezvous
        self.channel = channel
        self.counts = counts
        self.single = True
        self.classic = False

    def __repr__(self) -> str:
        return f"Op({self.name!r}, kind={self.kind})"


def _consume(op: Op) -> dict:
    """One firing's input values, popped through ``op.pops``."""
    consumed = {}
    for port, fifo, rate, members, connection in op.pops:
        if fifo is not None:
            consumed[port] = fifo.pop(rate)
        else:
            consumed[port] = connection.assemble(
                [member.pop(count) for member, count in members]
            )
    return consumed


def _produce(op: Op, consumed: dict) -> None:
    """Fire ``op.actor`` once on ``consumed`` and push its outputs."""
    produced = op.actor.fire(op.index, consumed)
    for port, fifo in op.pushes:
        fifo.push(produced[port])
    op.index += 1


def _launch(op: Op, now: int, tokens) -> None:
    """Deliver one SEND firing's ``tokens`` to every branch: every
    branch carries the whole block (fifos and channels copy a block
    that is not an ndarray themselves)."""
    for fifo in op.local:
        fifo.push(tokens)
    remote = op.remote
    if not remote:
        return
    if op.group is None:
        channel = remote[0][1]
        nbytes, deliver = channel.package(tokens)
        op.wire.send(
            channel.key, channel.src_pe, channel.dst_pe, nbytes, now, deliver
        )
        return
    parts = []
    for _, channel in remote:
        nbytes, deliver = channel.package(tokens)
        parts.append((channel.key, channel.dst_pe, nbytes, deliver))
    op.wire.send_collective(op.group, remote[0][1].src_pe, parts, now)


class PESequencer:
    """Interprets one PE's firing program, self-timed.

    ``program`` is the per-iteration list of :class:`Op` records (any
    other entry is rejected with ``TypeError``); the sequencer runs it
    ``iterations`` times and registers itself in ``sim.sequencers``.
    Dispatches of *different PEs* overlap, but the dispatches of one PE
    strictly serialize (one datapath).
    """

    def __init__(
        self,
        sim: Simulator,
        pe: ProcessingElement,
        program: Sequence,
        iterations: int,
        trace=None,
    ) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        for entry in program:
            if not isinstance(entry, Op):
                raise TypeError(
                    f"{pe.name}: program entry {entry!r} is not an Op record"
                )
        self.sim = sim
        self.pe = pe
        self.program = list(program)
        accelerated = pe.pe_class.is_accelerator
        for op in self.program:
            op.single = op.counts is None and not (
                accelerated and op.kind in (FIRE, SEND, RECV)
            )
            op.classic = op.kind == FIRE and op.single and op.sync is None
        self._length = len(self.program)
        self.iterations = iterations
        self.trace = trace
        self._add_row = trace.add_row if trace is not None else None
        self.iteration = 0
        self.position = 0
        self.done = not self.program
        self.finish_times: List[int] = []
        #: optional hook invoked synchronously at each iteration wrap,
        #: *before* the done check — the steady-state tracker hashes the
        #: kernel state here and may reduce ``iterations`` (a warp)
        self.on_iteration: Optional[Callable[[], None]] = None
        self._running = False
        #: absolute completion time of the running op (state hashing)
        self._busy_until: Optional[int] = None
        #: when the current op first failed its guard (None = not blocked)
        self._blocked_since: Optional[int] = None
        #: parked on waitset subscriptions
        self.parked = False
        #: queued in the kernel's current wake round
        self.wake_pending = False
        #: bumped every time the sequencer leaves the parked state —
        #: invalidates stale waitset subscriptions
        self.wait_epoch = 0
        #: the advance() call was delivered by a wakeup (spurious-wakeup
        #: accounting: set by the kernel, cleared on entry to advance)
        self._woken = False
        #: the running op and its start time
        self._op: Optional[Op] = None
        self._started_at = 0
        self._complete_cb = self._complete
        self._async_hook = self._install_async_complete
        sim.sequencers.append(self)

    def begin(self) -> None:
        """Arm the sequencer (schedule its first advance at t=0)."""
        if not self.done:
            self.sim.at(self.sim.now, self.advance)

    @property
    def current(self) -> Optional[Op]:
        if self.done:
            return None
        return self.program[self.position]

    def _unpark(self) -> None:
        self.parked = False
        self.wait_epoch += 1

    def advance(self) -> None:
        """Try to start the current op; park on a failed guard."""
        woken, self._woken = self._woken, False
        if self.done or self._running:
            return
        if self.parked:
            self._unpark()
        self._complete(False, woken)

    def _park(self, op: Op, now: int, woken: bool) -> None:
        """The current op's guard failed: park on its waitsets."""
        sim = self.sim
        if woken:
            sim.spurious_wakeups += 1
        if self._blocked_since is None:
            self._blocked_since = now
        self.pe.record_block()
        sim.park(
            self,
            [waitset for _, unmet in self._unmet(op) for waitset, _, _ in unmet],
        )

    def _unblock(self, op: Op, now: int) -> None:
        """The blocked interval ends now: attribute it to the op whose
        guard held the PE up (observability)."""
        self.pe.record_blocked_interval(op.name, now - self._blocked_since)
        self._blocked_since = None

    def _install_async_complete(self) -> None:
        self.sim.at(self.sim.now, self._complete_cb)

    def _complete(self, finishing: bool = True, woken: bool = False) -> None:
        """Finish the running op, then start (or park on) the next one.

        The event heap calls this once per dispatch completion: it
        records the busy cycles and the trace row, finishes the op,
        steps the program position (an iteration wrap runs
        ``on_iteration`` before the done check, as the steady-state
        tracker may shrink ``iterations`` there) and dispatches the next
        op.  :meth:`advance` calls it with ``finishing=False`` to only
        dispatch, after the entry checks of the wake path (a running
        sequencer is never parked, woken or blocked).  The classic
        firing (a FIRE op, one firing per dispatch, no sync layer) is
        interpreted inline — guard, consume, compute, produce; every
        other op goes through :meth:`_ready`, :meth:`_start` and
        :meth:`_finish`.
        """
        now = self.sim.now
        if finishing:
            op = self._op
            started = self._started_at
            pe = self.pe
            pe.busy_cycles += now - started
            pe.firings += 1
            if self._add_row is not None:
                self._add_row((pe.index, op.name, started, now, self.iteration))
            self._running = False
            if op.classic:
                produced = op.actor.fire(op.index, op.staged)
                op.staged = None
                for port, fifo in op.pushes:
                    fifo.push(produced[port])
                op.index += 1
            else:
                self._finish(op, now)
                if op.sync is not None:
                    self._sync_finish(op, now)
            position = self.position + 1
            if position == self._length:
                position = self.position = 0
                self.iteration += 1
                self.finish_times.append(now)
                if self.on_iteration is not None:
                    # may warp: every sequencer's target can shrink here,
                    # so the done check below must run after the hook
                    self.on_iteration()
                if self.iteration >= self.iterations:
                    self.done = True
                    return
            else:
                self.position = position
        op = self.program[self.position]
        if op.classic:
            for fifo, rate in op.guard:
                if fifo.count < rate:
                    self._park(op, now, woken)
                    return
            if self._blocked_since is not None:
                self._unblock(op, now)
            consumed = {}
            for port, fifo, rate, members, connection in op.pops:
                if fifo is not None:
                    consumed[port] = fifo.pop(rate)
                else:
                    consumed[port] = connection.assemble(
                        [member.pop(count) for member, count in members]
                    )
            op.staged = consumed
            duration = op.cycles
            if duration is None:
                duration = op.actor.execution_cycles(op.index, consumed)
        else:
            if not self._ready(op, now):
                self._park(op, now, woken)
                return
            if self._blocked_since is not None:
                self._unblock(op, now)
            if op.sync is not None:
                self._sync_start(op)
            duration = self._start(op, now)
        self._op = op
        self._started_at = now
        self._running = True
        if duration is None:
            # Event-completed op (e.g. a blocking rendezvous send):
            # completion arrives through ``_async_hook``.
            self._busy_until = None
            return
        if duration < 0:
            raise ValueError("delay must be >= 0")
        end = self._busy_until = now + duration
        sim = self.sim
        _heappush(sim._heap, (end, next(sim._seq), self._complete_cb))

    # -- the interpreter: the ops _complete does not run inline ---------------

    def _burst(self, op: Op) -> int:
        """Logical firings ``op`` runs in the current macro-pass."""
        return 1 if op.counts is None else op.counts[self.iteration]

    def ready(self, now: int) -> bool:
        """Does the current op's guard hold?  (Lost-wakeup audits.)"""
        return not self.done and self._ready(self.program[self.position], now)

    def _ready(self, op: Op, now: int) -> bool:
        """``op``'s guard, sync pools first."""
        if op.sync is not None and not self._sync_ready(op):
            return False
        kind = op.kind
        if kind == INIT:
            return True
        burst = 1 if op.counts is None else op.counts[self.iteration]
        if kind == SEND:
            if op.fifo.count < burst * op.rate:
                return False
            for channel in op.credited:
                if not channel.flow.can_send_n(burst):
                    return False
            return True
        if kind == RECV:
            return op.channel.receive_ready(burst)
        for fifo, rate in op.guard:
            if fifo.count < burst * rate:
                return False
        return True

    def _start(self, op: Op, now: int) -> Optional[int]:
        """``op``'s start effects; its duration (None: event-completed)."""
        kind = op.kind
        if kind == FIRE and op.single:
            consumed = op.staged = _consume(op)
            if op.cycles is not None:
                return op.cycles
            return op.actor.execution_cycles(op.index, consumed)
        if kind == SEND and op.single:
            tokens = op.staged = op.fifo.pop(op.rate)
            for flow in op.flows:
                flow.on_send()
            if op.cycles is not None:
                return op.cycles
            if op.cost is not None:
                return op.cost(now, tokens, self._async_hook)
            return op.actor.execution_cycles(op.index, {"in": tokens})
        if kind == RECV and op.single:
            # The message is consumed at completion; the duration
            # models header decode plus the payload copy.
            if op.cycles is not None:
                return op.cycles
            if op.cost is not None:
                return op.cost(now, self._async_hook)
            return op.actor.execution_cycles(op.index, {})
        if kind == INIT:
            return op.cycles if op.index == 0 else 0
        # a burst: every firing's inputs are consumed at start
        staged = []
        native = []
        for i in range(self._burst(op)):
            if kind == FIRE:
                inputs = _consume(op)
                staged.append(inputs)
            elif kind == SEND:
                tokens = op.fifo.pop(op.rate)
                for flow in op.flows:
                    flow.on_send()
                staged.append(tokens)
                inputs = {"in": tokens}
            else:
                inputs = {}
            native.append(
                op.cycles
                if op.cycles is not None
                else op.actor.execution_cycles(op.index + i, inputs)
            )
        op.staged = staged
        pe_class = self.pe.pe_class
        burst = len(native)
        if burst > 1:
            self.pe.record_batched_dispatch(
                burst, pe_class.dispatch_cycles_saved(burst)
            )
        return pe_class.batch_cycles(native)

    def _finish(self, op: Op, now: int) -> None:
        """``op``'s completion effects (before its sync layers' deposits)."""
        kind = op.kind
        if kind == FIRE:
            staged = op.staged
            op.staged = None
            if op.single:
                _produce(op, staged)
            else:
                for consumed in staged:
                    _produce(op, consumed)
        elif kind == SEND:
            staged = op.staged
            op.staged = None
            if op.rendezvous:
                op.index += 1
            elif op.single:
                op.index += 1
                _launch(op, now, staged)
            else:
                for tokens in staged:
                    op.index += 1
                    _launch(op, now, tokens)
        elif kind == RECV:
            channel = op.channel
            for _ in range(1 if op.counts is None else op.counts[self.iteration]):
                op.index += 1
                channel.receive_into(op.fifo, now)
        else:
            op.index += 1

    @staticmethod
    def _sync_ready(op: Op) -> bool:
        for layer in op.sync:
            if layer.count % layer.period == layer.phase:
                for pool in layer.guards:
                    if pool.tokens <= 0:
                        return False
        return True

    @staticmethod
    def _sync_start(op: Op) -> None:
        for layer in op.sync:
            if layer.count % layer.period == layer.phase:
                for pool in layer.guards:
                    pool.consume()

    def _sync_finish(self, op: Op, now: int) -> None:
        # innermost layer first, as each wraps everything inside it
        for layer in reversed(op.sync):
            if layer.count % layer.period == layer.phase:
                for pool, link, nbytes in layer.notify:
                    pool.messages_sent += 1
                    link.send(
                        self.sim, now, nbytes, pool.deposit,
                        ("resync", pool.name), layer.observer,
                    )
            layer.count += 1

    def _unmet(self, op: Op) -> Iterator[Tuple[str, List[tuple]]]:
        """Walk ``op``'s guard and yield every unmet group of conditions.

        A group is one sync layer, the FIRE inputs, the SEND input fifo,
        the SEND credit windows or the RECV channel; each is yielded as
        ``(prefix, [(waitset, name, shortfall), ...])``, one entry per
        unmet condition, where ``shortfall`` is a starved fifo's ``(has,
        needs)`` token counts, else None.  Parking subscribes every
        waitset of every group; :meth:`describe_block` formats the first
        group as its prefix and the names (and shortfalls) of its
        conditions.
        """
        for layer in op.sync or ():
            if layer.count % layer.period == layer.phase:
                empty = [
                    (pool.waitset, pool.name, None)
                    for pool in layer.guards
                    if pool.tokens <= 0
                ]
                if empty:
                    yield "waiting for sync tokens on ", empty
        kind = op.kind
        burst = self._burst(op)
        if kind == FIRE:
            starved = [
                (fifo.waitset, fifo.edge.name, (fifo.count, burst * rate))
                for fifo, rate in op.guard
                if fifo.count < burst * rate
            ]
            if starved:
                yield "starved on ", starved
        elif kind == SEND:
            fifo = op.fifo
            need = burst * op.rate
            if fifo.count < need:
                yield "starved on ", [
                    (fifo.waitset, fifo.edge.name, (fifo.count, need))
                ]
            closed = [
                (channel.space_waitset, channel.edge.name, None)
                for channel in op.credited
                if not channel.flow.can_send_n(burst)
            ]
            if closed:
                yield "waiting for ack credit on channel ", closed
        elif kind == RECV:
            channel = op.channel
            if not channel.receive_ready(burst):
                if burst > 1:
                    prefix = f"waiting for {burst} messages on channel "
                elif channel.rendezvous:
                    prefix = "waiting for a RTS envelope on channel "
                else:
                    prefix = "waiting for a message on channel "
                yield prefix, [(channel.data_waitset, channel.edge.name, None)]

    def describe_block(self) -> str:
        """Which op holds this unfinished sequencer up, and why."""
        op = self.current
        base = (
            f"{self.pe.name} blocked on task {op.name!r} "
            f"(iteration {self.iteration}, position {self.position})"
        )
        if self._running:
            # an event-completed op whose completion never came
            if op.rendezvous:
                channel = op.remote[0][1]
                return f"{base}: waiting for a CTS on channel {channel.edge.name!r}"
            return f"{base}: waiting for its completion event"
        for prefix, unmet in self._unmet(op):
            return f"{base}: {prefix}" + ", ".join(
                repr(name) if shortfall is None
                else f"{name!r} (has {shortfall[0]}, needs {shortfall[1]})"
                for _, name, shortfall in unmet
            )
        return base

