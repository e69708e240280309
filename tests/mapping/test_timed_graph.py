"""Unit tests for the timed task-graph substrate."""

from dataclasses import fields

import pytest

from repro.apps.lpc import build_parallel_error_graph, frame_stream
from repro.apps.particle_filter import (
    CrackGrowthModel,
    build_particle_filter_graph,
    simulate_crack_history,
)
from repro.conformance import build_case, generate_spec
from repro.mapping import (
    EdgeKind,
    TimedEdge,
    TimedGraph,
    TimedVertex,
    build_ipc_graph,
)
from repro.spi import lower
from tests.conftest import EditableGraph, synchronization_edges


def build_two_pe_loop():
    """x (PE0) -> y (PE1) -> x with a unit-delay return edge."""
    graph = EditableGraph("loop")
    graph.add_vertex(TimedVertex("x", cycles=10, pe=0))
    graph.add_vertex(TimedVertex("y", cycles=20, pe=1))
    graph.add_edge(TimedEdge("x", "y", delay=0, kind=EdgeKind.IPC))
    graph.add_edge(TimedEdge("y", "x", delay=1, kind=EdgeKind.SYNC))
    return graph


class TestConstruction:
    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TimedGraph.from_records(
                "twins", [TimedVertex("x", 1, 0), TimedVertex("x", 2, 0)]
            )

    def test_edge_needs_known_endpoints(self):
        with pytest.raises(ValueError, match="not a task"):
            TimedGraph.from_records(
                "ghost",
                [TimedVertex("x", 1, 0)],
                [TimedEdge("x", "ghost", delay=0)],
            )

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            TimedEdge("a", "b", delay=-1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            TimedEdge("a", "b", delay=0, kind="quantum")

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            TimedVertex("x", cycles=-1, pe=0)


class TestQueries:
    def test_sync_edges_cross_pe_only(self):
        graph = build_two_pe_loop()
        graph.add_vertex(TimedVertex("z", 5, 0))
        graph.add_edge(TimedEdge("x", "z", delay=0, kind=EdgeKind.INTRA))
        syncs = synchronization_edges(graph)
        assert {(e.src, e.snk) for e in syncs} == {("x", "y"), ("y", "x")}

    def test_tasks_on_and_pes(self):
        graph = build_two_pe_loop()
        assert [v.name for v in graph.tasks_on(1)] == ["y"]
        assert graph.pes == [0, 1]

    def test_to_dot_renders_pe_clusters(self):
        dot = build_two_pe_loop().to_dot()
        assert "cluster_pe0" in dot
        assert '"x" -> "y"' in dot


class TestMinDelayPaths:
    def test_direct_and_roundtrip(self):
        graph = build_two_pe_loop()
        rho = graph.min_delay_paths()
        assert rho["x"]["y"] == 0
        assert rho["y"]["x"] == 1
        assert rho["x"]["x"] == 0  # empty path by convention

    def test_missing_path_absent(self):
        graph = EditableGraph()
        graph.add_vertex(TimedVertex("a", 1, 0))
        graph.add_vertex(TimedVertex("b", 1, 1))
        graph.add_edge(TimedEdge("a", "b", delay=2))
        rho = graph.min_delay_paths()
        assert rho["a"]["b"] == 2
        assert "a" not in rho["b"]

    def test_parallel_edges_take_minimum(self):
        graph = EditableGraph()
        graph.add_vertex(TimedVertex("a", 1, 0))
        graph.add_vertex(TimedVertex("b", 1, 1))
        graph.add_edge(TimedEdge("a", "b", delay=5))
        graph.add_edge(TimedEdge("a", "b", delay=2))
        assert graph.min_delay_paths()["a"]["b"] == 2

    def test_multi_hop_cheaper_than_direct(self):
        graph = EditableGraph()
        for name, pe in (("a", 0), ("m", 1), ("b", 2)):
            graph.add_vertex(TimedVertex(name, 1, pe))
        graph.add_edge(TimedEdge("a", "b", delay=9))
        graph.add_edge(TimedEdge("a", "m", delay=1))
        graph.add_edge(TimedEdge("m", "b", delay=1))
        assert graph.min_delay_paths()["a"]["b"] == 2


class TestZeroDelayCycle:
    def test_detected(self):
        graph = EditableGraph()
        graph.add_vertex(TimedVertex("a", 1, 0))
        graph.add_vertex(TimedVertex("b", 1, 1))
        graph.add_edge(TimedEdge("a", "b", delay=0))
        graph.add_edge(TimedEdge("b", "a", delay=0))
        assert graph.zero_delay_cycle()

    def test_delay_breaks_cycle(self):
        graph = build_two_pe_loop()
        assert not graph.zero_delay_cycle()


def _lpc_3pe():
    frames = frame_stream(total_samples=2 * 256, frame_size=256)
    return build_parallel_error_graph(frames, order=8, n_units=2)


def _pf_2pe():
    model = CrackGrowthModel()
    _, observations = simulate_crack_history(model, steps=4)
    return build_particle_filter_graph(
        model, observations, n_particles=40, n_pes=2
    )


CASES = {
    "lpc_3pe": _lpc_3pe,
    "pf_2pe": _pf_2pe,
    **{
        f"seed{seed}": (lambda seed=seed: build_case(generate_spec(seed)))
        for seed in range(1, 11)
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_rebuild_equal_columns(name):
    """Rebuilding an IPC graph from its own records gives its columns."""
    built = CASES[name]()
    ipc = build_ipc_graph(lower(built.graph, built.partition).schedule)
    rebuilt = TimedGraph.from_records(ipc.name, ipc.vertices, ipc.edges)
    assert ipc.m > 0
    for column in fields(TimedGraph):
        assert getattr(rebuilt, column.name) == getattr(ipc, column.name)
