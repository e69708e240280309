"""Graph-level tests for collective connections (broadcast and gather)
and their degenerate single-branch forms."""

import pytest

from repro.dataflow import DataflowGraph
from repro.dataflow.graph import Connection, DynamicRate, GraphError


def _fan_out_graph(n_sinks=2, rate=4, sink_rate=None):
    graph = DataflowGraph("fan")
    src = graph.actor("src", cycles=10)
    src.add_output("o", rate=rate)
    for j in range(n_sinks):
        snk = graph.actor(f"snk{j}", cycles=5)
        snk.add_input("i", rate=sink_rate if sink_rate is not None else rate)
    return graph


def _fan_in_graph(n_sources=2, rate=2, sink_rate=None):
    graph = DataflowGraph("fan_in")
    for j in range(n_sources):
        src = graph.actor(f"src{j}", cycles=5)
        src.add_output("o", rate=rate)
    snk = graph.actor("snk", cycles=10)
    snk.add_input(
        "i", rate=sink_rate if sink_rate is not None else rate * n_sources
    )
    return graph


class TestConstruction:
    def test_connect_wraps_plain_fifo_connection(self):
        graph = _fan_out_graph(n_sinks=1)
        edge = graph.connect(
            (graph.get_actor("src"), "o"), (graph.get_actor("snk0"), "i")
        )
        (conn,) = graph.connections
        assert conn.kind == Connection.FIFO
        assert conn.edges == (edge,)
        assert edge.connection is conn
        assert not conn.is_collective
        assert graph.collective_connections == ()

    def test_broadcast_membership_and_edge_names(self):
        graph = _fan_out_graph(n_sinks=3)
        conn = graph.add_broadcast(
            "src.o", ["snk0.i", "snk1.i", "snk2.i"], name="bc"
        )
        assert conn.kind == Connection.BROADCAST
        assert conn.is_collective
        assert len(conn.edges) == 3
        assert [e.name for e in conn.edges] == ["bc[0]", "bc[1]", "bc[2]"]
        for index, edge in enumerate(conn.edges):
            assert edge.connection is conn
            assert edge.branch_index == index
            assert edge.source.qualified_name == "src.o"
        assert graph.collective_connections == (conn,)

    def test_string_tuple_and_port_references_agree(self):
        graph = _fan_out_graph(n_sinks=2)
        src = graph.get_actor("src")
        conn = graph.add_broadcast(
            src.port("o"), [("snk0.i"), (graph.get_actor("snk1"), "i")]
        )
        assert {e.sink.actor.name for e in conn.edges} == {"snk0", "snk1"}

    def test_port_joins_at_most_one_connection(self):
        graph = _fan_out_graph(n_sinks=2)
        graph.connect(
            (graph.get_actor("src"), "o"), (graph.get_actor("snk0"), "i")
        )
        with pytest.raises(GraphError, match="already connected"):
            graph.add_broadcast("src.o", ["snk1.i"])

    def test_dynamic_ports_rejected(self):
        graph = DataflowGraph("dyn")
        src = graph.actor("src", cycles=5)
        src.add_output("o", rate=DynamicRate(4))
        snk = graph.actor("snk", cycles=5)
        snk.add_input("i", rate=DynamicRate(4))
        with pytest.raises(GraphError, match="dynamic"):
            graph.add_broadcast("src.o", ["snk.i"])


class TestDegenerate:
    def test_single_branch_broadcast_is_not_collective(self):
        graph = _fan_out_graph(n_sinks=1)
        conn = graph.add_broadcast("src.o", ["snk0.i"])
        assert not conn.is_collective
        assert graph.collective_connections == ()

    def test_single_branch_gather_orients_into_the_hub(self):
        """A 1-producer gather still fans *in*: the hub is the sink and
        the single chunk equals the hub's consumption rate."""
        graph = _fan_in_graph(n_sources=1, rate=2, sink_rate=2)
        conn = graph.add_gather(["src0.o"], "snk.i")
        assert not conn.is_collective
        (edge,) = conn.edges
        assert edge.source.qualified_name == "src0.o"
        assert edge.sink.qualified_name == "snk.i"
        assert conn.chunks == (2,)
        assert edge.cons_rate == 2

    def test_degenerate_rates_match_plain_fifo(self):
        graph = _fan_out_graph(n_sinks=1)
        conn = graph.add_broadcast("src.o", ["snk0.i"])
        (edge,) = conn.edges
        assert edge.prod_rate == 4
        assert edge.cons_rate == 4


def _uneven_fan_in_graph():
    """src a (rate 2) and b (rate 3) into one rate-5 sink port."""
    graph = DataflowGraph("uneven")
    a = graph.actor("a", cycles=5)
    a.add_output("o", rate=2)
    b = graph.actor("b", cycles=5)
    b.add_output("o", rate=3)
    snk = graph.actor("snk", cycles=5)
    snk.add_input("i", rate=5)
    return graph


class TestGather:
    def test_kinds(self):
        assert Connection.KINDS == ("fifo", "broadcast", "gather")

    def test_gather_uneven_rate_needs_explicit_chunks(self):
        graph = _fan_in_graph(n_sources=3, rate=1, sink_rate=4)
        with pytest.raises(GraphError, match="split evenly"):
            graph.add_gather(["src0.o", "src1.o", "src2.o"], "snk.i")

    def test_gather_explicit_chunks_override_branch_rates(self):
        graph = _uneven_fan_in_graph()
        conn = graph.add_gather(["a.o", "b.o"], "snk.i", chunks=[2, 3])
        assert [e.cons_rate for e in conn.edges] == [2, 3]
        assert conn.assemble([[0, 1], [2, 3, 4]]) == [0, 1, 2, 3, 4]

    def test_chunks_must_sum_to_shared_rate(self):
        graph = _fan_in_graph(n_sources=2, rate=2, sink_rate=4)
        with pytest.raises(GraphError, match="sum to"):
            graph.add_gather(["src0.o", "src1.o"], "snk.i", chunks=[1, 2])

    def test_gather_concatenates_in_branch_order(self):
        graph = _fan_in_graph(n_sources=3, rate=1, sink_rate=3)
        conn = graph.add_gather(["src0.o", "src1.o", "src2.o"], "snk.i")
        assert conn.chunks == (1, 1, 1)
        assert [e.cons_rate for e in conn.edges] == [1, 1, 1]
        assert conn.assemble([[10], [20], [30]]) == [10, 20, 30]


class TestCopyStructure:
    def test_connections_survive_copy(self):
        graph = _fan_out_graph(n_sinks=2)
        graph.add_broadcast("src.o", ["snk0.i", "snk1.i"], name="bc")
        copy = graph.copy_structure()
        (conn,) = copy.collective_connections
        assert conn.kind == Connection.BROADCAST
        assert conn.name == "bc"
        assert [e.name for e in conn.edges] == ["bc[0]", "bc[1]"]
        assert all(e.connection is conn for e in conn.edges)
        copy.validate()

    def test_copy_preserves_chunks(self):
        graph = _uneven_fan_in_graph()
        graph.add_gather(["a.o", "b.o"], "snk.i", chunks=[2, 3])
        copy = graph.copy_structure()
        (conn,) = copy.collective_connections
        assert conn.chunks == (2, 3)
        assert [e.cons_rate for e in conn.edges] == [2, 3]
