"""Unit tests for synchronization graphs and the redundancy criterion
(the object-level definition in ``tests/conftest.py``)."""

from collections import Counter

from repro.mapping import (
    EdgeKind,
    TimedEdge,
    TimedVertex,
    build_ipc_graph,
    build_selftimed_schedule,
    derive_sync_graph,
)
from tests.conftest import (
    EditableGraph,
    is_redundant,
    redundant_edges,
    sync_cost,
    synchronization_edges,
)


def sync_of(graph, partition):
    return derive_sync_graph(
        build_ipc_graph(build_selftimed_schedule(graph, partition))
    )


def three_task_graph():
    """a -> b -> c plus a direct a -> c sync edge (the redundant one)."""
    graph = EditableGraph("tri")
    graph.add_vertex(TimedVertex("a", 1, 0))
    graph.add_vertex(TimedVertex("b", 1, 1))
    graph.add_vertex(TimedVertex("c", 1, 2))
    graph.add_edge(TimedEdge("a", "b", delay=0, kind=EdgeKind.SYNC))
    graph.add_edge(TimedEdge("b", "c", delay=0, kind=EdgeKind.SYNC))
    graph.add_edge(TimedEdge("a", "c", delay=0, kind=EdgeKind.SYNC))
    return graph


class TestDerivation:
    def test_sync_graph_copies_ipc(self, chain_graph, two_pe_partition):
        sync = sync_of(chain_graph, two_pe_partition)
        assert {v.name for v in sync.vertices} == {"A", "B", "C"}
        assert len(sync.edges) == 5  # 2 intra + 1 wrap(PE1 self) ... per build
        assert sync_cost(sync) == 2  # the two IPC edges

    def test_sync_cost_by_kind(self, chain_graph, two_pe_partition):
        sync = sync_of(chain_graph, two_pe_partition)
        kinds = Counter(e.kind for e in synchronization_edges(sync))
        assert kinds == {EdgeKind.IPC: 2}


class TestRedundancy:
    def test_transitive_edge_redundant(self):
        graph = three_task_graph()
        direct = [
            e for e in graph.edges if e.src == "a" and e.snk == "c"
        ][0]
        assert is_redundant(graph, direct)

    def test_supporting_edges_not_redundant(self):
        graph = three_task_graph()
        for edge in graph.edges:
            if (edge.src, edge.snk) != ("a", "c"):
                assert not is_redundant(graph, edge)

    def test_delay_must_not_decrease(self):
        """A path with more delay than the edge cannot subsume it."""
        graph = EditableGraph()
        graph.add_vertex(TimedVertex("a", 1, 0))
        graph.add_vertex(TimedVertex("b", 1, 1))
        graph.add_vertex(TimedVertex("c", 1, 2))
        graph.add_edge(TimedEdge("a", "b", delay=1, kind=EdgeKind.SYNC))
        graph.add_edge(TimedEdge("b", "c", delay=1, kind=EdgeKind.SYNC))
        direct = graph.add_edge(
            TimedEdge("a", "c", delay=0, kind=EdgeKind.SYNC)
        )
        assert not is_redundant(graph, direct)

    def test_higher_delay_edge_subsumed_by_tight_path(self):
        graph = EditableGraph()
        graph.add_vertex(TimedVertex("a", 1, 0))
        graph.add_vertex(TimedVertex("b", 1, 1))
        graph.add_vertex(TimedVertex("c", 1, 2))
        graph.add_edge(TimedEdge("a", "b", delay=0, kind=EdgeKind.SYNC))
        graph.add_edge(TimedEdge("b", "c", delay=1, kind=EdgeKind.SYNC))
        loose = graph.add_edge(
            TimedEdge("a", "c", delay=3, kind=EdgeKind.SYNC)
        )
        assert is_redundant(graph, loose)

    def test_edge_does_not_vouch_for_itself(self):
        graph = EditableGraph()
        graph.add_vertex(TimedVertex("a", 1, 0))
        graph.add_vertex(TimedVertex("b", 1, 1))
        only = graph.add_edge(TimedEdge("a", "b", delay=0, kind=EdgeKind.SYNC))
        assert not is_redundant(graph, only)

    def test_parallel_duplicate_edges_vouch_for_each_other(self):
        graph = EditableGraph()
        graph.add_vertex(TimedVertex("a", 1, 0))
        graph.add_vertex(TimedVertex("b", 1, 1))
        first = graph.add_edge(
            TimedEdge("a", "b", delay=0, kind=EdgeKind.SYNC)
        )
        second = graph.add_edge(
            TimedEdge("a", "b", delay=0, kind=EdgeKind.SYNC)
        )
        assert is_redundant(graph, first)
        assert is_redundant(graph, second)

    def test_redundant_edges_listing(self):
        graph = three_task_graph()
        found = redundant_edges(graph)
        assert {(e.src, e.snk) for e in found} == {("a", "c")}

    def test_same_pe_edges_skipped_by_default(self):
        graph = three_task_graph()
        graph.add_vertex(TimedVertex("a2", 1, 0))
        graph.add_edge(TimedEdge("a", "a2", delay=0, kind=EdgeKind.SYNC))
        graph.add_edge(TimedEdge("a", "a2", delay=0, kind=EdgeKind.SYNC))
        found = redundant_edges(graph, cross_pe_only=True)
        assert all(e.snk != "a2" for e in found)
