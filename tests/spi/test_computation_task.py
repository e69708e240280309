"""Unit tests for the FIRE op, the one computation op of both the SPI
runtime and the MPI baseline.

:func:`~repro.spi.actors.compute_op` pre-resolves an actor's ports into
a flat guard chain, a pop table and a push table; the PE sequencer
interprets the record.  These tests run one op on one sequencer and pin
that lowering against the reference definitions on
:class:`~repro.dataflow.graph.Connection` (``assemble`` for consumed
port values; every branch of an output carries the whole output) on every
collective kind, through both the classic single-firing path and the
burst path.
"""

import pytest

from repro.dataflow import DataflowGraph
from repro.platform import (
    PESequencer,
    ProcessingElement,
    SimulationDeadlock,
    Simulator,
    TraceRecorder,
)
from repro.platform.pe import PEClass
from repro.spi.actors import LocalFifo, compute_op
from repro.spi.library import ComputeWiring

ACCEL = PEClass(kind="accelerator", dispatch_cycles=100, cycles_per_element=0.5)


def compute(k, inputs):
    g, r = inputs["g"], inputs["r"]
    return {
        "b": [sum(g) + k, sum(r)],
        "s": [value * 10 + k for value in reversed(g)],
    }


def hub_graph(cycles=7):
    """``hub`` consumes an even and an uneven gather, produces a
    broadcast and a plain FIFO; the peers exist only to own the member
    edges.  Returns the list the kernel records each firing's consumed
    port values into."""
    graph = DataflowGraph("hub")
    seen = []

    def kernel(k, inputs):
        seen.append(inputs)
        return compute(k, inputs)

    hub = graph.actor("hub", kernel=kernel, cycles=cycles)
    hub.add_input("g", rate=4)
    hub.add_input("r", rate=3)
    hub.add_output("b", rate=2)
    hub.add_output("s", rate=4)
    for name, rate in (("g0", 2), ("g1", 2), ("r0", 1), ("r1", 2)):
        graph.actor(name).add_output("o", rate=rate)
    for name, rate in (("b0", 2), ("b1", 2), ("s0", 4)):
        graph.actor(name).add_input("i", rate=rate)
    graph.add_gather(["g0.o", "g1.o"], "hub.g", name="gather")
    graph.add_gather(["r0.o", "r1.o"], "hub.r", chunks=[1, 2], name="chunked")
    graph.add_broadcast("hub.b", ["b0.i", "b1.i"], name="bcast")
    graph.connect((hub, "s"), (graph.get_actor("s0"), "i"), name="fifo")
    return graph, hub, seen


def wire(graph, hub, counts=None):
    fifos = {edge.edge_id: LocalFifo(edge) for edge in graph.edges}
    op = compute_op(hub, ComputeWiring.of(graph, hub, fifos), fifos, counts)
    return op, fifos


class Run:
    """One sequencer running ``[op]`` for ``iterations`` passes."""

    def __init__(self, op, iterations=1, pe=None):
        self.sim = Simulator()
        self.trace = TraceRecorder()
        self.pe = pe or ProcessingElement(0)
        self.sequencer = PESequencer(
            self.sim, self.pe, [op], iterations, trace=self.trace
        )
        self.sequencer.begin()

    def drain(self):
        """Run to completion or to the deadlock; returns its text."""
        try:
            self.sim.run()
        except SimulationDeadlock as error:
            return str(error)
        return None

    def durations(self):
        return [end - start for _, _, start, end, _ in self.trace.rows]


def feed(graph, hub, fifos, firings):
    """Push ``firings`` worth of distinct tokens on every in-edge of
    ``hub``; returns the expected consumed port values per firing."""
    by_port = {}
    for edge in sorted(graph.in_edges(hub), key=lambda e: e.branch_index):
        by_port.setdefault(edge.sink.name, []).append(edge)
    expected = [{} for _ in range(firings)]
    for port, edges in by_port.items():
        branch_values = []
        for edge in edges:
            base = 100 * (edge.edge_id + 1)
            values = [
                [base + k * edge.cons_rate + t for t in range(edge.cons_rate)]
                for k in range(firings)
            ]
            for chunk in values:
                fifos[edge.edge_id].push(chunk)
            branch_values.append(values)
        connection = edges[0].connection
        for k in range(firings):
            expected[k][port] = connection.assemble(
                [values[k] for values in branch_values]
            )
    return expected


def check_outputs(graph, hub, fifos, consumed):
    """Every out-edge holds the whole output of each firing."""
    for edge in graph.out_edges(hub):
        want = []
        for k, inputs in enumerate(consumed):
            values = compute(k, inputs)[edge.source.name]
            want.extend(values)
        assert list(fifos[edge.edge_id].snapshot()) == want, edge.name


class TestSingleFiring:
    def test_unbatched_gpp_dispatch_runs_one_firing(self):
        graph, hub, seen = hub_graph()
        op, fifos = wire(graph, hub)
        assert op.name == "fire:hub"
        expected = feed(graph, hub, fifos, firings=2)
        run = Run(op, iterations=3)
        assert run.drain() is not None  # the third firing starves
        assert run.sequencer.current.classic
        assert run.durations() == [7, 7]
        assert seen == expected
        assert op.index == 2
        assert not run.sequencer.ready(run.sim.now)
        check_outputs(graph, hub, fifos, expected)

    def test_starved_guard_names_the_empty_branches(self):
        graph, hub, _ = hub_graph()
        op, fifos = wire(graph, hub)
        run = Run(op)
        reason = run.drain()
        assert "blocked on task 'fire:hub'" in reason
        assert ": starved on " in reason
        assert "'gather[0]' (has 0, needs 2)" in reason
        assert "'chunked[1]' (has 0, needs 2)" in reason
        # parked on exactly the four starved member fifos
        assert sum(len(fifo.waitset) for fifo in fifos.values()) == 4
        feed(graph, hub, fifos, firings=1)
        assert run.sequencer.ready(run.sim.now)
        assert run.drain() is None
        assert run.sequencer.done


class TestBurst:
    def test_burst_of_three_on_an_accelerator(self):
        graph, hub, seen = hub_graph()
        pe = ProcessingElement(1, pe_class=ACCEL)
        op, fifos = wire(graph, hub, counts=[3])
        expected = feed(graph, hub, fifos, firings=2)
        run = Run(op, pe=pe)
        reason = run.drain()  # needs all three firings' tokens
        assert "needs 6" in reason
        assert not op.single
        expected += feed(graph, hub, fifos, firings=1)
        assert run.drain() is None
        assert run.durations() == [ACCEL.batch_cycles([7, 7, 7])]
        assert pe.batched_firings == 3
        assert pe.batch_dispatches == 1
        assert pe.amortized_dispatch_cycles_saved == 200
        assert op.index == 3
        assert seen == expected
        check_outputs(graph, hub, fifos, expected)


class TestCycleModels:
    @pytest.mark.parametrize(
        "counts, pe_class, duration",
        [
            (None, None, 7),
            ([3], ACCEL, 100 + 3 * 4),
        ],
        ids=["single", "burst"],
    )
    def test_static_and_callable_models_agree(self, counts, pe_class, duration):
        for cycles in (7, lambda k, inputs: 7):
            graph, hub, _ = hub_graph(cycles=cycles)
            op, fifos = wire(graph, hub, counts=counts)
            feed(graph, hub, fifos, firings=3)
            pe = ProcessingElement(0, pe_class=pe_class or PEClass())
            run = Run(op, pe=pe)
            assert run.drain() is None
            assert run.durations() == [duration]

    def test_callable_model_sees_each_firing(self):
        calls = []

        def cycles(k, inputs):
            calls.append((k, sorted(inputs)))
            return 5 + k

        graph, hub, _ = hub_graph(cycles=cycles)
        op, fifos = wire(graph, hub, counts=[3])
        feed(graph, hub, fifos, firings=3)
        run = Run(op, pe=ProcessingElement(0, pe_class=ACCEL))
        assert run.drain() is None
        assert run.durations() == [ACCEL.batch_cycles([5, 6, 7])]
        assert calls == [(k, ["g", "r"]) for k in range(3)]
