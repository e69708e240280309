"""Unit tests for the discrete-event kernel and PE sequencers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform import (
    LostWakeupError,
    PESequencer,
    ProcessingElement,
    SimulationDeadlock,
    Simulator,
    Waitset,
)


class StubTask:
    """Configurable task: guard flag, fixed duration, completion log.

    A gated task parks on its own waitset; whoever opens the gate wakes
    it.
    """

    def __init__(self, name, duration=5, gate=None):
        self.name = name
        self.duration = duration
        self.gate = gate  # None = always ready, else a mutable [bool]
        self.waitset = Waitset(name)
        self.finishes = []

    def ready(self, now):
        return True if self.gate is None else self.gate[0]

    def wait_on(self, now):
        return [self.waitset]

    def start(self, now):
        return self.duration

    def finish(self, now):
        self.finishes.append(now)


class AsyncTask:
    """Event-completed task: finishes when an external event fires."""

    def __init__(self, name, sim, complete_at):
        self.name = name
        self.sim = sim
        self.complete_at = complete_at
        self.complete_async = None
        self.finishes = []

    def ready(self, now):
        return True

    def wait_on(self, now):
        return []

    def start(self, now):
        self.sim.at(self.complete_at, lambda: self.complete_async())
        return None

    def finish(self, now):
        self.finishes.append(now)


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.at(10, lambda: log.append("b"))
        sim.at(5, lambda: log.append("a"))
        sim.at(10, lambda: log.append("c"))
        final = sim.run()
        assert log == ["a", "b", "c"]
        assert final == 10

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.at(5, lambda: sim.at(3, lambda: None))
        with pytest.raises(ValueError, match="past"):
            sim.run()

    def test_max_cycles_guard(self):
        sim = Simulator()
        def reschedule():
            sim.after(10, reschedule)
        sim.at(0, reschedule)
        with pytest.raises(RuntimeError, match="max_cycles"):
            sim.run(max_cycles=100)


class TestPESequencer:
    def test_serial_execution_on_one_pe(self):
        sim = Simulator()
        pe = ProcessingElement(0)
        tasks = [StubTask("t1", 5), StubTask("t2", 7)]
        seq = PESequencer(sim, pe, tasks, iterations=2)
        seq.begin()
        sim.run()
        assert tasks[0].finishes == [5, 17]
        assert tasks[1].finishes == [12, 24]
        assert seq.done
        assert seq.finish_times == [12, 24]
        assert pe.busy_cycles == 24
        assert pe.firings == 4

    def test_blocked_task_deadlocks_alone(self):
        sim = Simulator()
        pe = ProcessingElement(0)
        gate = [False]
        seq = PESequencer(sim, pe, [StubTask("t", gate=gate)], iterations=1)
        seq.begin()
        with pytest.raises(SimulationDeadlock) as excinfo:
            sim.run()
        # the message names the PE and the parked task
        assert "PE0" in str(excinfo.value)
        assert "blocked on task 't'" in str(excinfo.value)

    def test_deadlock_message_includes_task_reason(self):
        """Tasks exposing ``blocked_reason`` get it appended — the
        mechanism the SPI/MPI tasks use to name the starved channel."""

        class ChannelTask(StubTask):
            def blocked_reason(self, now):
                return "waiting for a message on channel 'A.o->B.i'"

        sim = Simulator()
        pe = ProcessingElement(1)
        task = ChannelTask("recv", gate=[False])
        seq = PESequencer(sim, pe, [task], iterations=1)
        seq.begin()
        with pytest.raises(SimulationDeadlock) as excinfo:
            sim.run()
        message = str(excinfo.value)
        assert "PE1" in message
        assert "waiting for a message on channel 'A.o->B.i'" in message

    def test_deadlock_message_tolerates_broken_reason(self):
        """A faulty ``blocked_reason`` must not mask the deadlock."""

        class BadReasonTask(StubTask):
            def blocked_reason(self, now):
                raise RuntimeError("diagnosis failed")

        sim = Simulator()
        pe = ProcessingElement(0)
        seq = PESequencer(
            sim, pe, [BadReasonTask("t", gate=[False])], iterations=1
        )
        seq.begin()
        with pytest.raises(SimulationDeadlock, match="blocked on task"):
            sim.run()

    def test_spi_deadlock_names_pe_and_channel(self):
        """End to end: an SPI receiver whose producer never sends tokens
        deadlocks with a message naming its PE and the starved channel."""
        from repro.dataflow import DataflowGraph
        from repro.mapping import Partition
        from repro.spi import SpiSystem

        graph = DataflowGraph("starved")

        def silent(k, inputs):
            return {"o": []}  # violates its declared rate: B starves

        def sink(k, inputs):
            return {}

        a = graph.actor("A", kernel=silent, cycles=5)
        b = graph.actor("B", kernel=sink, cycles=5)
        a.add_output("o")
        b.add_input("i")
        graph.connect((a, "o"), (b, "i"))
        partition = Partition.manual(graph, {"A": 0, "B": 1})
        system = SpiSystem.compile(graph, partition)
        with pytest.raises(SimulationDeadlock) as excinfo:
            system.run(iterations=2)
        message = str(excinfo.value)
        assert "PE1" in message
        assert "A.o->B.i" in message  # the channel it is blocked on

    def test_waitset_wake_unblocks(self):
        sim = Simulator()
        pe = ProcessingElement(0)
        gate = [False]
        blocked = StubTask("blocked", duration=3, gate=gate)
        seq = PESequencer(sim, pe, [blocked], iterations=1)
        seq.begin()

        def open_gate():
            gate[0] = True
            blocked.waitset.wake()

        sim.at(20, open_gate)
        sim.run()
        assert blocked.finishes == [23]
        assert pe.blocked_events >= 1

    def test_two_pes_run_concurrently(self):
        sim = Simulator()
        pe0, pe1 = ProcessingElement(0), ProcessingElement(1)
        t0, t1 = StubTask("t0", 10), StubTask("t1", 10)
        seq0 = PESequencer(sim, pe0, [t0], iterations=1)
        seq1 = PESequencer(sim, pe1, [t1], iterations=1)
        seq0.begin()
        seq1.begin()
        final = sim.run()
        assert final == 10  # parallel, not 20

    def test_async_completion(self):
        sim = Simulator()
        pe = ProcessingElement(0)
        task = AsyncTask("rendezvous", sim, complete_at=42)
        seq = PESequencer(sim, pe, [task], iterations=1)
        seq.begin()
        sim.run()
        assert task.finishes == [42]
        assert pe.busy_cycles == 42  # blocked the PE the whole time

    def test_iterations_validated(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PESequencer(sim, ProcessingElement(0), [], iterations=0)

    def test_task_without_wait_on_rejected(self):
        """Every task must name its waitsets: the sequencer refuses a
        program with a task that cannot, before anything runs."""

        class Plain:
            name = "plain"

            def ready(self, now):
                return False

            def start(self, now):
                return 1

            def finish(self, now):
                pass

        sim = Simulator()
        with pytest.raises(TypeError, match="'plain'.*wait_on"):
            PESequencer(
                sim, ProcessingElement(0), [StubTask("ok"), Plain()], 1
            )

    def test_blocked_task_without_waitsets_raises(self):
        """A blocked task naming no waitset could never be woken: the
        kernel reports it when the sequencer parks."""

        class Stranded(StubTask):
            def wait_on(self, now):
                return []

        sim = Simulator()
        seq = PESequencer(
            sim,
            ProcessingElement(0),
            [Stranded("stranded", gate=[False])],
            iterations=1,
        )
        seq.begin()
        with pytest.raises(
            LostWakeupError, match="'stranded' is blocked.*no waitset"
        ):
            sim.run()
        assert sim.parks == 0

    def test_utilization(self):
        pe = ProcessingElement(3)
        pe.record_execution(30)
        assert pe.utilization(60) == pytest.approx(0.5)
        assert pe.utilization(0) == 0.0
        assert pe.name == "PE3"


class Resource:
    """Counting resource with a waitset — the targeted-wakeup testbed."""

    def __init__(self, sim, name="r"):
        self.sim = sim
        self.tokens = 0
        self.waitset = Waitset(name)

    def deposit(self, wake=True):
        self.tokens += 1
        if wake:
            self.waitset.wake()


class WaitingTask(StubTask):
    """Consumes one token per firing; declares its waitset via wait_on."""

    def __init__(self, name, resource, duration=2):
        super().__init__(name, duration)
        self.resource = resource

    def ready(self, now):
        return self.resource.tokens > 0

    def wait_on(self, now):
        return [self.resource.waitset]

    def start(self, now):
        self.resource.tokens -= 1
        return self.duration


class TestWaitsets:
    def _consumer(self, sim, resource, iterations=1, idx=0):
        task = WaitingTask(f"consume{idx}", resource)
        seq = PESequencer(
            sim, ProcessingElement(idx), [task], iterations=iterations
        )
        seq.begin()
        return task, seq

    def test_targeted_wakeup_counters(self):
        sim = Simulator()
        resource = Resource(sim)
        task, _ = self._consumer(sim, resource)
        sim.at(10, resource.deposit)
        sim.run()
        assert task.finishes == [12]
        assert sim.parks == 1
        assert sim.targeted_wakeups == 1
        assert sim.spurious_wakeups == 0
        assert sim.total_wakeups == 1
        assert resource.waitset.wakes == 1

    def test_spurious_wakeup_counted(self):
        """Two consumers on one waitset, one token: the loser re-parks
        and the kernel books one spurious wakeup."""
        sim = Simulator()
        resource = Resource(sim)
        t0, _ = self._consumer(sim, resource, idx=0)
        t1, _ = self._consumer(sim, resource, idx=1)
        sim.at(5, resource.deposit)
        sim.at(20, resource.deposit)
        sim.run()
        assert t0.finishes and t1.finishes
        assert sim.spurious_wakeups == 1
        assert sim.targeted_wakeups == 3  # 2 at t=5 (1 spurious) + 1 at t=20

    def test_stale_subscriptions_invalidated_by_epoch(self):
        """A sequencer re-parking leaves stale entries in waitsets it no
        longer waits on; epoch comparison must discard them."""

        class TwoResourceTask(StubTask):
            def __init__(self, name, a, b):
                super().__init__(name, duration=1)
                self.a, self.b = a, b

            def ready(self, now):
                return self.a.tokens > 0 and self.b.tokens > 0

            def wait_on(self, now):
                waitsets = []
                if self.a.tokens <= 0:
                    waitsets.append(self.a.waitset)
                if self.b.tokens <= 0:
                    waitsets.append(self.b.waitset)
                return waitsets

            def start(self, now):
                self.a.tokens -= 1
                self.b.tokens -= 1
                return self.duration

        sim = Simulator()
        a, b = Resource(sim, "a"), Resource(sim, "b")
        task = TwoResourceTask("t", a, b)
        seq = PESequencer(sim, ProcessingElement(0), [task], iterations=1)
        seq.begin()
        sim.at(5, a.deposit)   # wakes, guard still fails (b empty)
        sim.at(10, b.deposit)  # wakes the *new* subscription only
        sim.run()
        assert task.finishes == [11]
        assert sim.spurious_wakeups == 1
        assert sim.targeted_wakeups == 2

    def test_park_is_idempotent(self):
        sim = Simulator()
        task = StubTask("t")
        seq = PESequencer(sim, ProcessingElement(0), [task], iterations=1)
        sim.park(seq, [task.waitset])
        sim.park(seq, [task.waitset])
        assert sim.parks == 1
        assert sim._parked.count(seq) == 1

    def test_lost_wakeup_detected_at_deadlock(self):
        """A resource mutated without wake(): the drained heap finds the
        parked task ready and reports a kernel bug, not an app deadlock."""
        sim = Simulator()
        resource = Resource(sim)
        self._consumer(sim, resource)

        def silent_deposit():
            resource.tokens += 1  # no wake

        sim.at(5, silent_deposit)
        with pytest.raises(LostWakeupError, match="lost wakeup"):
            sim.run()

    def test_lost_wakeup_audit_mode(self):
        """check_lost_wakeups=True catches the lost wakeup at the next
        wake round instead of waiting for the deadlock."""
        sim = Simulator(check_lost_wakeups=True)
        starved, healthy = Resource(sim, "starved"), Resource(sim, "ok")
        self._consumer(sim, starved, idx=0)
        self._consumer(sim, healthy, idx=1)

        def mixed():
            starved.tokens += 1       # forgotten wake
            healthy.deposit()         # proper wake -> drives a wake round

        sim.at(5, mixed)
        with pytest.raises(LostWakeupError, match="lost wakeup"):
            sim.run()

    def test_deadlock_reported_while_parked(self):
        sim = Simulator()
        resource = Resource(sim)  # never deposited
        self._consumer(sim, resource)
        with pytest.raises(SimulationDeadlock, match="blocked on task"):
            sim.run()


class TestCompletionStep:
    """One call per task completion: the checks and the bookkeeping the
    former ``after``/``at``/``_step``/``advance`` hops made still hold."""

    @pytest.mark.parametrize("position", [0, 1], ids=["first", "next"])
    def test_negative_duration_rejected(self, position):
        """At the first start (``advance``) and at a start that follows
        a completion (``_complete``) alike."""
        sim = Simulator()
        tasks = [StubTask("ok", 5), StubTask("ok2", 5)]
        tasks[position].duration = -1
        PESequencer(sim, ProcessingElement(0), tasks, iterations=1).begin()
        with pytest.raises(ValueError, match="delay must be >= 0"):
            sim.run()

    def test_event_that_raises_is_counted(self):
        sim = Simulator()
        sim.at(1, lambda: None)

        def fail():
            raise KeyError("boom")

        sim.at(2, fail)
        with pytest.raises(KeyError):
            sim.run()
        assert sim.events_processed == 2
        assert sim.now == 2

    def test_max_cycles_is_inclusive(self):
        sim = Simulator()
        sim.at(100, lambda: None)
        assert sim.run(max_cycles=100) == 100
        assert sim.events_processed == 1

    def test_iteration_hook_runs_at_the_wrap_before_the_done_check(self):
        sim = Simulator()
        pe = ProcessingElement(0)
        tasks = [StubTask("a", 3), StubTask("b", 4)]
        seq = PESequencer(sim, pe, tasks, iterations=5)
        seen = []

        def hook():
            seen.append(
                (seq.position, seq.iteration, sim.now, list(seq.finish_times))
            )
            if seq.iteration == 2:
                seq.iterations = 2  # a warp shrinking the target

        seq.on_iteration = hook
        seq.begin()
        assert sim.run() == 14
        assert seen == [(0, 1, 7, [7]), (0, 2, 14, [7, 14])]
        assert seq.done
        assert (pe.busy_cycles, pe.firings) == (14, 4)
        assert seq._busy_until == 14

    def test_completion_records_busy_cycles_and_trace_rows(self):
        from repro.platform.trace import TraceRecorder

        sim = Simulator()
        pe = ProcessingElement(3)
        gate = [False]
        waiting = StubTask("gated", 2, gate=gate)
        recorder = TraceRecorder()
        seq = PESequencer(
            sim, pe, [StubTask("a", 5), waiting], iterations=2, trace=recorder
        )
        seq.begin()

        def open_gate():
            gate[0] = True
            waiting.waitset.wake()

        sim.at(9, open_gate)
        sim.run()
        assert recorder.rows == (
            (3, "a", 0, 5, 0),
            (3, "gated", 9, 11, 0),
            (3, "a", 11, 16, 1),
            (3, "gated", 16, 18, 1),
        )
        assert (pe.busy_cycles, pe.firings) == (14, 4)
        assert (pe.blocked_events, pe.blocked_cycles) == (1, 4)
        assert pe.blocked_by_task == {"gated": 4}
        assert (sim.parks, sim.targeted_wakeups, sim.spurious_wakeups) == (
            1,
            1,
            0,
        )


class TestProcessingElementReset:
    def test_reset_clears_all_statistics(self):
        pe = ProcessingElement(2)
        pe.record_execution(30)
        pe.record_block()
        pe.record_blocked_interval("recv", 12)
        pe.reset()
        assert pe.busy_cycles == 0
        assert pe.firings == 0
        assert pe.blocked_events == 0
        assert pe.blocked_cycles == 0
        assert pe.blocked_by_task == {}
        # identity survives, accounting restarts cleanly
        assert pe.index == 2 and pe.name == "PE2"
        pe.record_blocked_interval("send", 3)
        assert pe.blocked_by_task == {"send": 3}


class TestNoLostWakeupProperty:
    """Property: under random deposit/consume interleavings the kernel
    (with its lost-wakeup audit armed) never strands a sequencer, and
    every consumer fires exactly when its token and its PE are both
    available."""

    @staticmethod
    def _build(plan):
        sim = Simulator(check_lost_wakeups=True)
        tasks = []
        for idx, (duration, deposits) in enumerate(plan):
            resource = Resource(sim, f"r{idx}")
            task = WaitingTask(f"c{idx}", resource, duration=duration)
            seq = PESequencer(
                sim,
                ProcessingElement(idx),
                [task],
                iterations=len(deposits),
            )
            seq.begin()
            tasks.append((task, seq))
            for t in deposits:
                sim.at(t, resource.deposit)
        return sim, tasks

    @staticmethod
    def _expected_finishes(duration, deposits):
        finishes, free_at = [], 0
        for arrival in sorted(deposits):
            free_at = max(arrival, free_at) + duration
            finishes.append(free_at)
        return finishes

    @given(
        plan=st.lists(
            st.tuples(
                st.integers(0, 4),                    # task duration
                st.lists(                             # deposit times
                    st.integers(0, 40), min_size=1, max_size=5
                ),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_interleavings(self, plan):
        sim, tasks = self._build(plan)
        sim.run()
        for (task, seq), (duration, deposits) in zip(tasks, plan):
            assert seq.done
            assert task.finishes == self._expected_finishes(
                duration, deposits
            )
        assert sim.spurious_wakeups <= sim.total_wakeups
