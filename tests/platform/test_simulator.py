"""Unit tests for the discrete-event kernel and PE sequencers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import DataflowGraph
from repro.platform import (
    LostWakeupError,
    PESequencer,
    ProcessingElement,
    SimulationDeadlock,
    Simulator,
    TraceRecorder,
)
from repro.spi.actors import LocalFifo, compute_op, recv_op
from repro.spi.library import ComputeWiring


def resource(name="r"):
    """A fifo the test deposits tokens into: one edge of a graph of its own."""
    graph = DataflowGraph(name)
    graph.actor("deposit").add_output("o")
    graph.actor("take").add_input("i")
    edge = graph.connect(
        (graph.get_actor("deposit"), "o"), (graph.get_actor("take"), "i")
    )
    return LocalFifo(edge)


def fire(name, cycles=5, inputs=()):
    """The FIRE op ``fire:<name>``: pops one token of every fifo in
    ``inputs`` per firing (always ready without inputs)."""
    graph = DataflowGraph(name)
    actor = graph.actor(name, cycles=cycles)
    fifos = {}
    for i, fifo in enumerate(inputs):
        source = graph.actor(f"source{i}")
        source.add_output("o")
        actor.add_input(f"i{i}")
        fifos[graph.connect((source, "o"), (actor, f"i{i}")).edge_id] = fifo
    return compute_op(actor, ComputeWiring.of(graph, actor, fifos), fifos)


def deposit(fifo, wake=True):
    """Push one token; ``wake=False`` hides the push from the fifo's
    waitset, as a resource mutation that forgot to wake would."""
    waiters = fifo.waitset.waiters
    if not wake:
        fifo.waitset.waiters = []
    fifo.push([1])
    if not wake:
        fifo.waitset.waiters = waiters


def finishes(trace, name):
    """End times of every dispatch of the op called ``name``."""
    return [end for _, task, _, end, _ in trace.rows if task == name]


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
        trace = TraceRecorder()
        seq = PESequencer(
            sim, pe, [fire("t1", 5), fire("t2", 7)], iterations=2, trace=trace
        )
        seq.begin()
        sim.run()
        assert finishes(trace, "fire:t1") == [5, 17]
        assert finishes(trace, "fire:t2") == [12, 24]
        assert seq.done
        assert seq.finish_times == [12, 24]
        assert pe.busy_cycles == 24
        assert pe.firings == 4

    def test_blocked_op_deadlocks_alone(self):
        sim = Simulator()
        pe = ProcessingElement(0)
        gate = resource("gate")
        seq = PESequencer(sim, pe, [fire("t", inputs=[gate])], iterations=1)
        seq.begin()
        with pytest.raises(SimulationDeadlock) as excinfo:
            sim.run()
        # the message names the PE and the parked op
        assert "PE0" in str(excinfo.value)
        assert "blocked on task 'fire:t'" in str(excinfo.value)

    def test_spi_deadlock_names_pe_and_channel(self):
        """End to end: an SPI receiver whose producer never sends tokens
        deadlocks with a message naming its PE and the starved channel."""
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
        gate = resource("gate")
        trace = TraceRecorder()
        seq = PESequencer(
            sim, pe, [fire("blocked", 3, [gate])], iterations=1, trace=trace
        )
        seq.begin()
        sim.at(20, lambda: deposit(gate))
        sim.run()
        assert finishes(trace, "fire:blocked") == [23]
        assert pe.blocked_events >= 1

    def test_two_pes_run_concurrently(self):
        sim = Simulator()
        pe0, pe1 = ProcessingElement(0), ProcessingElement(1)
        seq0 = PESequencer(sim, pe0, [fire("t0", 10)], iterations=1)
        seq1 = PESequencer(sim, pe1, [fire("t1", 10)], iterations=1)
        seq0.begin()
        seq1.begin()
        final = sim.run()
        assert final == 10  # parallel, not 20
        assert sim.sequencers == [seq0, seq1]

    @staticmethod
    def _async_recv(sim, out, cost):
        """A RECV op priced by ``cost(now, done)`` whose channel always
        holds a message; its receive pushes the completion time."""

        class Channel:
            rendezvous = False
            edge = out.edge
            data_waitset = out.waitset

            def receive_ready(self, n):
                return True

            def receive_into(self, fifo, now):
                fifo.push([now])

        return recv_op(
            out.edge.sink.actor, Channel(), out, name="recv", cost=cost
        )

    def test_async_completion(self):
        """A RECV op whose cost hook returns None completes when the
        event it scheduled calls ``done``."""
        sim = Simulator()
        pe = ProcessingElement(0)
        out = resource("out")
        op = self._async_recv(sim, out, lambda now, done: sim.at(42, done))
        PESequencer(sim, pe, [op], iterations=1).begin()
        sim.run()
        assert out.snapshot() == (42,)
        assert pe.busy_cycles == 42  # blocked the PE the whole time

    def test_async_op_never_completed_is_a_deadlock(self):
        """A running event-completed op whose ``done`` never comes
        leaves its sequencer unfinished: the drained heap reports it."""
        sim = Simulator()
        op = self._async_recv(sim, resource("out"), lambda now, done: None)
        PESequencer(sim, ProcessingElement(1), [op], iterations=1).begin()
        with pytest.raises(SimulationDeadlock) as excinfo:
            sim.run()
        assert str(excinfo.value) == (
            "simulation deadlocked at t=0: PE1 blocked on task 'recv' "
            "(iteration 0, position 0): waiting for its completion event"
        )

    def test_iterations_validated(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PESequencer(sim, ProcessingElement(0), [], iterations=0)

    def test_non_op_entry_rejected(self):
        """A program is a list of Op records: the sequencer refuses any
        other entry before anything runs, and does not register."""
        sim = Simulator()
        with pytest.raises(TypeError, match="'plain' is not an Op record"):
            PESequencer(sim, ProcessingElement(0), [fire("ok"), "plain"], 1)
        assert sim.sequencers == []

    def test_park_without_waitsets_raises(self):
        """A blocked op naming no waitset could never be woken: the
        kernel reports it when the sequencer parks."""
        sim = Simulator()
        gate = resource("gate")
        seq = PESequencer(
            sim, ProcessingElement(0), [fire("stranded", inputs=[gate])], 1
        )
        with pytest.raises(
            LostWakeupError, match="'fire:stranded' is blocked.*no waitset"
        ):
            sim.park(seq, [])
        assert sim.parks == 0

    def test_utilization(self):
        pe = ProcessingElement(3)
        pe.busy_cycles = 30
        assert pe.utilization(60) == pytest.approx(0.5)
        assert pe.utilization(0) == 0.0
        assert pe.name == "PE3"


class TestWaitsets:
    def _consumer(self, sim, fifo, iterations=1, idx=0, cycles=2):
        trace = TraceRecorder()
        seq = PESequencer(
            sim,
            ProcessingElement(idx),
            [fire(f"consume{idx}", cycles, [fifo])],
            iterations=iterations,
            trace=trace,
        )
        seq.begin()
        return trace, seq

    def test_targeted_wakeup_counters(self):
        sim = Simulator()
        fifo = resource()
        trace, _ = self._consumer(sim, fifo)
        sim.at(10, lambda: deposit(fifo))
        sim.run()
        assert finishes(trace, "fire:consume0") == [12]
        assert sim.parks == 1
        assert sim.targeted_wakeups == 1
        assert sim.spurious_wakeups == 0
        assert sim.total_wakeups == 1

    def test_spurious_wakeup_counted(self):
        """Two consumers on one fifo, one token: the loser re-parks and
        the kernel books one spurious wakeup."""
        sim = Simulator()
        fifo = resource()
        t0, _ = self._consumer(sim, fifo, idx=0)
        t1, _ = self._consumer(sim, fifo, idx=1)
        sim.at(5, lambda: deposit(fifo))
        sim.at(20, lambda: deposit(fifo))
        sim.run()
        assert finishes(t0, "fire:consume0") and finishes(t1, "fire:consume1")
        assert sim.spurious_wakeups == 1
        assert sim.targeted_wakeups == 3  # 2 at t=5 (1 spurious) + 1 at t=20

    def test_stale_subscriptions_invalidated_by_epoch(self):
        """A sequencer re-parking leaves stale entries in waitsets it no
        longer waits on; epoch comparison must discard them."""
        sim = Simulator()
        a, b = resource("a"), resource("b")
        trace = TraceRecorder()
        seq = PESequencer(
            sim, ProcessingElement(0), [fire("t", 1, [a, b])], 1, trace=trace
        )
        seq.begin()
        sim.at(5, lambda: deposit(a))   # wakes, guard still fails (b empty)
        sim.at(10, lambda: deposit(b))  # wakes the *new* subscription only
        sim.run()
        assert finishes(trace, "fire:t") == [11]
        assert sim.spurious_wakeups == 1
        assert sim.targeted_wakeups == 2

    def test_park_is_idempotent(self):
        sim = Simulator()
        fifo = resource()
        seq = PESequencer(
            sim, ProcessingElement(0), [fire("t", inputs=[fifo])], 1
        )
        sim.park(seq, [fifo.waitset])
        sim.park(seq, [fifo.waitset])
        assert sim.parks == 1
        assert len(fifo.waitset) == 1

    def test_lost_wakeup_detected_at_deadlock(self):
        """A resource mutated without wake(): the drained heap finds the
        parked op ready and reports a kernel bug, not an app deadlock."""
        sim = Simulator()
        fifo = resource()
        self._consumer(sim, fifo)
        sim.at(5, lambda: deposit(fifo, wake=False))
        with pytest.raises(LostWakeupError, match="lost wakeup"):
            sim.run()

    def test_lost_wakeup_audit_mode(self):
        """check_lost_wakeups=True catches the lost wakeup at the next
        wake round instead of waiting for the deadlock."""
        sim = Simulator(check_lost_wakeups=True)
        starved, healthy = resource("starved"), resource("ok")
        self._consumer(sim, starved, idx=0)
        self._consumer(sim, healthy, idx=1)

        def mixed():
            deposit(starved, wake=False)  # forgotten wake
            deposit(healthy)              # proper wake -> drives a wake round

        sim.at(5, mixed)
        with pytest.raises(LostWakeupError, match="lost wakeup"):
            sim.run()

    def test_deadlock_reported_while_parked(self):
        sim = Simulator()
        self._consumer(sim, resource())  # never deposited
        with pytest.raises(SimulationDeadlock, match="blocked on task"):
            sim.run()


class TestCompletionStep:
    """One call per op completion: the checks and the bookkeeping the
    former ``after``/``at``/``_step``/``advance`` hops made still hold."""

    @pytest.mark.parametrize("position", [0, 1], ids=["first", "next"])
    def test_negative_duration_rejected(self, position):
        """At the first start (``advance``) and at a start that follows
        a completion (``_complete``) alike."""
        sim = Simulator()
        ops = [fire("ok", 5), fire("ok2", 5)]
        ops[position].cycles = -1
        PESequencer(sim, ProcessingElement(0), ops, iterations=1).begin()
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
        seq = PESequencer(sim, pe, [fire("a", 3), fire("b", 4)], iterations=5)
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
        sim = Simulator()
        pe = ProcessingElement(3)
        gate = resource("gate")
        recorder = TraceRecorder()
        seq = PESequencer(
            sim,
            pe,
            [fire("a", 5), fire("gated", 2, [gate])],
            iterations=2,
            trace=recorder,
        )
        seq.begin()
        sim.at(9, lambda: [deposit(gate), deposit(gate)])
        sim.run()
        assert recorder.rows == (
            (3, "fire:a", 0, 5, 0),
            (3, "fire:gated", 9, 11, 0),
            (3, "fire:a", 11, 16, 1),
            (3, "fire:gated", 16, 18, 1),
        )
        assert (pe.busy_cycles, pe.firings) == (14, 4)
        assert (pe.blocked_events, pe.blocked_cycles) == (1, 4)
        assert pe.blocked_by_task == {"fire:gated": 4}
        assert (sim.parks, sim.targeted_wakeups, sim.spurious_wakeups) == (
            1,
            1,
            0,
        )


class TestNoLostWakeupProperty:
    """Property: under random deposit/consume interleavings the kernel
    (with its lost-wakeup audit armed) never strands a sequencer, and
    every consumer fires exactly when its token and its PE are both
    available."""

    @staticmethod
    def _build(plan):
        sim = Simulator(check_lost_wakeups=True)
        trace = TraceRecorder()
        for idx, (duration, deposits) in enumerate(plan):
            fifo = resource(f"r{idx}")
            PESequencer(
                sim,
                ProcessingElement(idx),
                [fire(f"c{idx}", duration, [fifo])],
                iterations=len(deposits),
                trace=trace,
            ).begin()
            for t in deposits:
                sim.at(t, lambda fifo=fifo: deposit(fifo))
        return sim, trace

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
                st.integers(0, 4),                    # op duration
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
        sim, trace = self._build(plan)
        sim.run()
        for idx, (duration, deposits) in enumerate(plan):
            assert sim.sequencers[idx].done
            assert finishes(trace, f"fire:c{idx}") == self._expected_finishes(
                duration, deposits
            )
        assert sim.spurious_wakeups <= sim.total_wakeups
