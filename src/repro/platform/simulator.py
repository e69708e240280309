"""Discrete-event simulation kernel with self-timed PE sequencers.

The kernel is deliberately small: a time-ordered event heap plus a
park/wake discipline for sequencers.

* A **task** is anything implementing the :class:`Task` protocol —
  computation firings, SPI sends/receives, MPI baseline operations.
* A **sequencer** executes one PE's cyclic task order: it runs tasks in
  order, starting each as soon as its ``ready()`` guard holds (this *is*
  the self-timed execution model of the paper: assignment and order are
  fixed at compile time, firing instants resolve at run time from data
  availability).
* When a task's guard fails the sequencer parks.  The task's
  ``wait_on()`` names the :class:`Waitset` objects of the resources it
  is blocked on (a starved channel, an empty sync pool, an exhausted
  credit window); the sequencer subscribes to those waitsets and is
  woken **only** when one of them signals.

A state change therefore touches exactly the sequencers that can make
progress.  Wakeups are delivered through the event heap at the current
simulation time, after the mutating event completes, in subscription
order.

Deadlock (all sequencers parked, no events pending) raises
:class:`SimulationDeadlock` with a description of every blocked task —
invaluable when a protocol is mis-wired.  If a parked sequencer's guard
actually *holds* at deadlock time, or a blocked task names no waitset
to wait on, the kernel raises :class:`LostWakeupError` instead: nothing
would ever wake that sequencer, which is a kernel-integration bug, never
an application deadlock.  ``Simulator(check_lost_wakeups=True)`` (used
by the conformance oracles) additionally audits every wakeup round for
ready-but-unwoken sequencers instead of waiting for the deadlock.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Protocol, Sequence, Tuple

from repro.platform.pe import ProcessingElement

__all__ = [
    "Task",
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
    :meth:`Waitset.wake` — or when a blocked task names no waitset at
    all.  This is a kernel/task integration bug, and is
    kept distinct from :class:`SimulationDeadlock` (a property of the
    simulated application) so conformance campaigns can tell them apart.
    """


class Task(Protocol):
    """One schedulable unit on a PE."""

    name: str

    def ready(self, now: int) -> bool:
        """May the task start at time ``now``?"""

    def start(self, now: int) -> Optional[int]:
        """Perform start-of-execution effects.

        Return the duration in cycles for fixed-latency tasks, or
        ``None`` for event-completed tasks (e.g. a blocking rendezvous
        send): the task must then invoke the ``complete_async`` callback
        installed on it by the sequencer when it is done.
        """

    def finish(self, now: int) -> None:
        """Perform end-of-execution effects (produce tokens, send, ...)."""

    def wait_on(self, now: int) -> Sequence["Waitset"]:
        """Waitsets whose signal may let a failed ``ready`` guard pass.

        Called only after ``ready(now)`` returned False; a blocked task
        must name at least one waitset.  Tasks that are always ready
        return an empty list.
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

    __slots__ = ("name", "_waiters", "wakes")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._waiters: List[Tuple["PESequencer", int]] = []
        #: wake() calls that found at least one live waiter
        self.wakes = 0

    def __len__(self) -> int:
        return len(self._waiters)

    def subscribe(self, sequencer: "PESequencer") -> None:
        self._waiters.append((sequencer, sequencer.wait_epoch))

    def wake(self) -> None:
        """Schedule a wakeup for every live subscriber."""
        if not self._waiters:
            return
        waiters, self._waiters = self._waiters, []
        woke = False
        for sequencer, epoch in waiters:
            if sequencer.wait_epoch == epoch:
                sequencer.sim._schedule_wake(sequencer)
                woke = True
        if woke:
            self.wakes += 1

    def __repr__(self) -> str:
        return f"Waitset({self.name!r}, waiters={len(self._waiters)})"


class Simulator:
    """Event heap + parked-sequencer bookkeeping.

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
        self._parked: List["PESequencer"] = []
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
        if not sequencer._tracked:
            sequencer._tracked = True
            self._parked.append(sequencer)
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
            self.at(self.now, self._drain_wakes)

    def _drain_wakes(self) -> None:
        self._wake_scheduled = False
        queue, self._wake_queue = self._wake_queue, []
        for sequencer in queue:
            sequencer.wake_pending = False
            self.targeted_wakeups += 1
            sequencer._woken = True
            sequencer.advance()
        if self._parked:
            # prune sequencers that were woken (or finished) this round
            kept = []
            for sequencer in self._parked:
                if sequencer.parked:
                    kept.append(sequencer)
                else:
                    sequencer._tracked = False
            self._parked = kept
        if self.check_lost_wakeups:
            self._audit_parked()

    def _audit_parked(self) -> None:
        """Assert no parked sequencer is ready but unwoken."""
        for sequencer in self._parked:
            if sequencer.wake_pending or not sequencer.parked:
                continue
            task = sequencer.current
            if task is not None and task.ready(self.now):
                raise LostWakeupError(
                    f"{sequencer.pe.name}: task {task.name!r} became ready "
                    f"at t={self.now} but no waitset woke its sequencer "
                    f"(lost wakeup)"
                )

    # -- main loop ---------------------------------------------------------------

    def run(self, max_cycles: Optional[int] = None) -> int:
        """Drain the event heap; returns the final simulation time.

        ``max_cycles`` guards against runaway simulations (raises
        ``RuntimeError`` when exceeded).
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
        blocked = [s for s in self._parked if s.parked and not s.done]
        if blocked:
            blocked.sort(key=lambda s: s.pe.index)
            for sequencer in blocked:
                task = sequencer.current
                if task is not None and task.ready(self.now):
                    raise LostWakeupError(
                        f"{sequencer.pe.name}: task {task.name!r} is ready "
                        f"at t={self.now} but its sequencer was never woken "
                        f"(lost wakeup)"
                    )
            details = "; ".join(s.describe_block() for s in blocked)
            raise SimulationDeadlock(
                f"simulation deadlocked at t={self.now}: {details}"
            )
        return self.now


class PESequencer:
    """Executes one PE's cyclic task order, self-timed.

    ``program`` is the per-iteration task list; the sequencer runs it
    ``iterations`` times.  Each task may be executed with overlapping of
    *different PEs* but tasks of one PE strictly serialize (one datapath).
    Every task must implement ``wait_on`` (see :class:`Task`); a program
    with a task that does not is rejected here with ``TypeError``.
    """

    def __init__(
        self,
        sim: Simulator,
        pe: ProcessingElement,
        program: Sequence[Task],
        iterations: int,
        trace=None,
    ) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.sim = sim
        self.pe = pe
        self.program = list(program)
        self._length = len(self.program)
        for task in self.program:
            if not callable(getattr(task, "wait_on", None)):
                raise TypeError(
                    f"{pe.name}: task {task.name!r} does not implement "
                    f"wait_on(now); a blocked task must name the waitsets "
                    f"that can wake it"
                )
        self.iterations = iterations
        self.trace = trace
        self.iteration = 0
        self.position = 0
        self.done = not self.program
        self.finish_times: List[int] = []
        #: optional hook invoked synchronously at each iteration wrap,
        #: *before* the done check — the steady-state tracker hashes the
        #: kernel state here and may reduce ``iterations`` (a warp)
        self.on_iteration: Optional[Callable[[], None]] = None
        self._running = False
        #: absolute completion time of the running task (state hashing)
        self._busy_until: Optional[int] = None
        #: when the current task first failed its guard (None = not blocked)
        self._blocked_since: Optional[int] = None
        #: parked on waitset subscriptions
        self.parked = False
        #: queued in the kernel's current wake round
        self.wake_pending = False
        #: bumped every time the sequencer leaves the parked state —
        #: invalidates stale waitset subscriptions
        self.wait_epoch = 0
        #: membership flag for the kernel's parked list
        self._tracked = False
        #: the advance() call was delivered by a wakeup (spurious-wakeup
        #: accounting: set by the kernel, cleared on entry to advance)
        self._woken = False
        # One completion closure per sequencer, reused across every task
        # start (tasks of one PE strictly serialize, so a single slot is
        # enough) — avoids two closure allocations per firing.
        self._current_task: Optional[Task] = None
        self._started_at = 0
        self._complete_cb = self._complete
        self._async_hook = self._install_async_complete

    def begin(self) -> None:
        """Arm the sequencer (schedule its first advance at t=0)."""
        if not self.done:
            self.sim.at(self.sim.now, self.advance)

    @property
    def current(self) -> Optional[Task]:
        if self.done:
            return None
        return self.program[self.position]

    def _unpark(self) -> None:
        self.parked = False
        self.wait_epoch += 1

    def advance(self) -> None:
        """Try to start the current task; park on a failed guard."""
        woken, self._woken = self._woken, False
        if self.done or self._running:
            return
        if self.parked:
            self._unpark()
        task = self.program[self.position]
        now = self.sim.now
        if not task.ready(now):
            self._park(task, now, woken)
            return
        if self._blocked_since is not None:
            # The blocked interval ends now: attribute it to the task
            # whose guard held the PE up (observability).
            self.pe.record_blocked_interval(
                task.name, now - self._blocked_since
            )
            self._blocked_since = None
        self._current_task = task
        self._started_at = now
        duration = task.start(now)
        self._running = True
        if duration is None:
            # Event-completed task (e.g. a blocking rendezvous send):
            # the task signals completion through this callback.
            self._busy_until = None
            task.complete_async = self._async_hook
            return
        if duration < 0:
            raise ValueError("delay must be >= 0")
        self._busy_until = now + duration
        sim = self.sim
        heapq.heappush(
            sim._heap, (now + duration, next(sim._seq), self._complete_cb)
        )

    def _park(self, task: Task, now: int, woken: bool) -> None:
        """The current task's guard failed: park on its waitsets."""
        sim = self.sim
        if woken:
            sim.spurious_wakeups += 1
        if self._blocked_since is None:
            self._blocked_since = now
        self.pe.record_block()
        sim.park(self, task.wait_on(now))

    def _install_async_complete(self) -> None:
        self.sim.at(self.sim.now, self._complete_cb)

    def _complete(self) -> None:
        """Finish the running task and start (or park on) the next one.

        One call per task completion: it records the busy cycles and the
        trace row, finishes the task, steps the program position (an
        iteration wrap runs ``on_iteration`` before the done check, as
        the steady-state tracker may shrink ``iterations`` there) and
        then does what :meth:`advance` does for the next task.  A
        running sequencer is never parked, woken or blocked, so that
        part needs none of :meth:`advance`'s entry checks.
        """
        sim = self.sim
        now = sim.now
        task = self._current_task
        self._current_task = None
        self._running = False
        started = self._started_at
        pe = self.pe
        pe.busy_cycles += now - started
        pe.firings += 1
        if self.trace is not None:
            self.trace.record(
                pe.index, task.name, started, now, self.iteration
            )
        task.finish(now)
        position = self.position + 1
        if position < self._length:
            self.position = position
        else:
            self.position = 0
            self.iteration += 1
            self.finish_times.append(now)
            if self.on_iteration is not None:
                # may warp: every sequencer's target can shrink here, so
                # the done check below must run after the hook
                self.on_iteration()
            if self.iteration >= self.iterations:
                self.done = True
                return
        task = self.program[self.position]
        if not task.ready(now):
            self._park(task, now, False)
            return
        self._current_task = task
        self._started_at = now
        duration = task.start(now)
        self._running = True
        if duration is None:
            self._busy_until = None
            task.complete_async = self._async_hook
            return
        if duration < 0:
            raise ValueError("delay must be >= 0")
        self._busy_until = now + duration
        heapq.heappush(
            sim._heap, (now + duration, next(sim._seq), self._complete_cb)
        )

    def describe_block(self) -> str:
        task = self.current
        name = task.name if task is not None else "<none>"
        base = (
            f"{self.pe.name} blocked on task {name!r} "
            f"(iteration {self.iteration}, position {self.position})"
        )
        # tasks that know *why* they cannot proceed (which channel or
        # fifo is starved/full) report it, making deadlocks diagnosable
        reason_fn = getattr(task, "blocked_reason", None)
        if reason_fn is not None:
            try:
                reason = reason_fn(self.sim.now)
            except Exception:
                reason = None
            if reason:
                base = f"{base}: {reason}"
        return base
