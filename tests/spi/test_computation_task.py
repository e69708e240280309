"""Unit tests for :class:`ComputationTask`, the one computation task of
both the SPI runtime and the MPI baseline.

The task pre-resolves its ports into flat wait chains and scatter spans
at construction; these tests pin that lowering against the reference
definitions on :class:`~repro.dataflow.graph.Connection`
(``assemble`` for consumed port values, ``produced_tokens`` for
per-branch pushes) on every collective kind, through both the
single-firing path and the burst path.
"""

import pytest

from repro.dataflow import DataflowGraph
from repro.platform.pe import PEClass, ProcessingElement
from repro.spi.actors import ComputationTask, LocalFifo

ACCEL = PEClass(kind="accelerator", dispatch_cycles=100, cycles_per_element=0.5)


def compute(k, inputs):
    g, r = inputs["g"], inputs["r"]
    return {
        "b": [sum(g) + k, sum(r)],
        "s": [value * 10 + k for value in reversed(g)],
    }


def hub_graph(cycles=7):
    """``hub`` consumes a gather and a reduce, produces a broadcast and a
    scatter; the peers exist only to own the member edges.  Returns the
    list the kernel records each firing's consumed port values into."""
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
    for name, rate in (("g0", 2), ("g1", 2), ("r0", 3), ("r1", 3)):
        graph.actor(name).add_output("o", rate=rate)
    for name, rate in (("b0", 2), ("b1", 2), ("s0", 1), ("s1", 3)):
        graph.actor(name).add_input("i", rate=rate)
    graph.add_gather(["g0.o", "g1.o"], "hub.g", name="gather")
    graph.add_reduce(["r0.o", "r1.o"], "hub.r", name="reduce")
    graph.add_broadcast("hub.b", ["b0.i", "b1.i"], name="bcast")
    graph.add_scatter("hub.s", ["s0.i", "s1.i"], chunks=[1, 3], name="scat")
    return graph, hub, seen


def wire(graph, hub, **batch_kwargs):
    fifos = {edge.edge_id: LocalFifo(edge) for edge in graph.edges}
    task = ComputationTask.wired(hub, graph, fifos, **batch_kwargs)
    return task, fifos


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
    """Every out-edge holds exactly ``produced_tokens`` of each firing."""
    for edge in graph.out_edges(hub):
        want = []
        for k, inputs in enumerate(consumed):
            values = compute(k, inputs)[edge.source.name]
            want.extend(edge.connection.produced_tokens(edge, values))
        assert list(fifos[edge.edge_id].snapshot()) == want, edge.name


class TestSingleFiring:
    def test_unbatched_gpp_dispatch_runs_one_firing(self):
        graph, hub, seen = hub_graph()
        task, fifos = wire(graph, hub)
        assert not task.ready(0)
        expected = feed(graph, hub, fifos, firings=2)
        for k in range(2):
            assert task.ready(0)
            assert task.start(0) == 7
            task.finish(7)
            assert seen[k] == expected[k]
        assert task.firing_index == 2
        assert not task.ready(0)
        check_outputs(graph, hub, fifos, expected)

    def test_starved_guard_names_the_empty_branches(self):
        graph, hub, _ = hub_graph()
        task, fifos = wire(graph, hub)
        reason = task.blocked_reason(0)
        assert reason.startswith("starved on ")
        assert "'gather[0]' (has 0, needs 2)" in reason
        assert "'reduce[1]' (has 0, needs 3)" in reason
        assert len(task.wait_on(0)) == 4
        feed(graph, hub, fifos, firings=1)
        assert task.blocked_reason(0) is None
        assert task.wait_on(0) == []


class TestBurst:
    def test_burst_of_three_on_an_accelerator(self):
        graph, hub, seen = hub_graph()
        pe = ProcessingElement(1, pe_class=ACCEL)
        task, fifos = wire(
            graph, hub, batch_counts=[3], pe_class=ACCEL, pe=pe
        )
        expected = feed(graph, hub, fifos, firings=2)
        assert task.burst == 3
        assert not task.ready(0)  # needs all three firings' tokens
        assert "needs 6" in task.blocked_reason(0)
        expected += feed(graph, hub, fifos, firings=1)
        assert task.ready(0)
        assert task.start(0) == ACCEL.batch_cycles([7, 7, 7])
        assert pe.batched_firings == 3
        assert pe.batch_dispatches == 1
        assert pe.amortized_dispatch_cycles_saved == 200
        assert seen == []  # the burst fires at completion
        task.finish(0)
        assert task.firing_index == 3
        assert seen == expected
        check_outputs(graph, hub, fifos, expected)


class TestCycleModels:
    @pytest.mark.parametrize(
        "batch_kwargs, duration",
        [
            ({}, 7),
            ({"batch_counts": [3], "pe_class": ACCEL}, 100 + 3 * 4),
        ],
        ids=["single", "burst"],
    )
    def test_static_and_callable_models_agree(self, batch_kwargs, duration):
        for cycles in (7, lambda k, inputs: 7):
            graph, hub, _ = hub_graph(cycles=cycles)
            task, fifos = wire(graph, hub, **batch_kwargs)
            feed(graph, hub, fifos, firings=3)
            assert task.start(0) == duration
            task.finish(0)

    def test_callable_model_sees_each_firing(self):
        calls = []

        def cycles(k, inputs):
            calls.append((k, sorted(inputs)))
            return 5 + k

        graph, hub, _ = hub_graph(cycles=cycles)
        task, fifos = wire(graph, hub, batch_counts=[3], pe_class=ACCEL)
        feed(graph, hub, fifos, firings=3)
        assert task.start(0) == ACCEL.batch_cycles([5, 6, 7])
        assert calls == [(k, ["g", "r"]) for k in range(3)]


def test_a_single_branch_reduce_still_combines():
    """A reduce port with one member edge passes its tokens through
    ``combine``, not straight from the fifo."""
    graph = DataflowGraph("reduce1")
    seen = []
    sink = graph.actor(
        "sink", kernel=lambda k, inputs: seen.append(inputs) or {}, cycles=1
    )
    sink.add_input("r", rate=2)
    graph.actor("r0").add_output("o", rate=2)
    graph.add_reduce(
        ["r0.o"],
        "sink.r",
        combine=lambda branches: [10 * v for v in branches[0]],
        name="reduce",
    )
    task, fifos = wire(graph, sink)
    (edge,) = graph.in_edges(sink)
    fifos[edge.edge_id].push([1, 2])
    task.start(0)
    task.finish(1)
    assert seen == [{"r": [10, 20]}]
