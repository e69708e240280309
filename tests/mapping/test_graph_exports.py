"""Rendering/reporting coverage: dot exports and sync-cost breakdowns."""

from collections import Counter

from repro.dataflow import DataflowGraph, DynamicRate
from repro.mapping import (
    EdgeKind,
    Partition,
    TimedEdge,
    build_ipc_graph,
    build_selftimed_schedule,
    derive_sync_graph,
)
from tests.conftest import editable, sync_cost, synchronization_edges


def two_pe_sync_graph(chain_graph):
    partition = Partition.manual(chain_graph, {"A": 0, "B": 1, "C": 0})
    schedule = build_selftimed_schedule(chain_graph, partition)
    return editable(derive_sync_graph(build_ipc_graph(schedule)))


class TestTimedGraphDot:
    def test_clusters_and_styles(self, chain_graph):
        sync = two_pe_sync_graph(chain_graph)
        dot = sync.to_dot()
        assert "cluster_pe0" in dot and "cluster_pe1" in dot
        assert "style=bold" in dot  # ipc edges
        assert "style=solid" in dot  # intra edges
        assert 'label="d=1"' in dot  # the wrap-around delay

    def test_ack_edges_dotted(self, chain_graph):
        sync = two_pe_sync_graph(chain_graph)
        sync.add_edge(
            TimedEdge("B", "A", delay=4, kind=EdgeKind.ACK)
        )
        assert "style=dotted" in sync.to_dot()


class TestSyncCostBreakdown:
    def test_by_kind_with_acks(self, chain_graph):
        sync = two_pe_sync_graph(chain_graph)
        sync.add_edge(TimedEdge("B", "A", delay=4, kind=EdgeKind.ACK))
        breakdown = Counter(e.kind for e in synchronization_edges(sync))
        assert breakdown[EdgeKind.IPC] == 2
        assert breakdown[EdgeKind.ACK] == 1
        assert sync_cost(sync) == 3

    def test_same_pe_sync_edges_free(self, chain_graph):
        sync = two_pe_sync_graph(chain_graph)
        before = sync_cost(sync)
        sync.add_edge(TimedEdge("A", "C", delay=0, kind=EdgeKind.SYNC))
        assert sync_cost(sync) == before  # A and C share PE0


class TestDataflowDotDynamic:
    def test_dynamic_actors_marked(self):
        graph = DataflowGraph("d")
        a = graph.actor("A")
        b = graph.actor("B")
        a.add_output("o", rate=DynamicRate(5))
        b.add_input("i", rate=DynamicRate(5))
        graph.connect((a, "o"), (b, "i"))
        dot = graph.to_dot()
        assert "octagon" in dot  # dynamic actors get a distinct shape
        assert "DynamicRate" in dot
