"""Unit tests for the dataflow graph structures."""

import numpy as np
import pytest

from repro.dataflow import (
    Actor,
    DataflowGraph,
    Direction,
    DynamicRate,
    GraphError,
    Port,
)
from repro.dataflow.graph import concat_blocks


class TestPort:
    def test_static_port_defaults(self):
        port = Port("p", Direction.INPUT)
        assert port.rate == 1
        assert port.token_bytes == 4
        assert not port.is_dynamic
        assert port.max_rate == 1

    def test_dynamic_port_max_rate_is_bound(self):
        port = Port("p", Direction.OUTPUT, rate=DynamicRate(7))
        assert port.is_dynamic
        assert port.max_rate == 7

    def test_rejects_bad_direction(self):
        with pytest.raises(GraphError, match="direction"):
            Port("p", "sideways")

    def test_rejects_zero_rate(self):
        with pytest.raises(GraphError, match="positive"):
            Port("p", Direction.INPUT, rate=0)

    def test_rejects_negative_rate(self):
        with pytest.raises(GraphError):
            Port("p", Direction.INPUT, rate=-3)

    def test_rejects_bool_rate(self):
        with pytest.raises(GraphError):
            Port("p", Direction.INPUT, rate=True)

    def test_rejects_float_rate(self):
        with pytest.raises(GraphError, match="int or DynamicRate"):
            Port("p", Direction.INPUT, rate=1.5)

    def test_rejects_nonpositive_token_bytes(self):
        with pytest.raises(GraphError, match="token_bytes"):
            Port("p", Direction.INPUT, token_bytes=0)

    def test_qualified_name_detached(self):
        assert "<detached>" in Port("p", Direction.INPUT).qualified_name

    def test_direction_flags(self):
        assert Port("i", Direction.INPUT).is_input
        assert not Port("i", Direction.INPUT).is_output
        assert Port("o", Direction.OUTPUT).is_output
        assert not Port("o", Direction.OUTPUT).is_input


class TestActor:
    def test_add_port_attaches_and_lists_outputs(self):
        actor = Actor("A")
        actor.add_input("i")
        out = actor.add_port(Port("o", Direction.OUTPUT, rate=3))
        assert out.actor is actor
        assert actor.port("o") is out
        assert actor.output_ports == (out,)

    def test_duplicate_port_rejected(self):
        actor = Actor("A")
        actor.add_input("i")
        with pytest.raises(GraphError, match="already has a port"):
            actor.add_input("i")

    def test_unknown_port_lookup(self):
        actor = Actor("A")
        with pytest.raises(GraphError, match="no port"):
            actor.port("missing")

    def test_empty_name_rejected(self):
        with pytest.raises(GraphError):
            Actor("")

    def test_structural_fire_produces_rate_tokens(self):
        actor = Actor("A")
        actor.add_output("o", rate=3)
        outputs = actor.fire(0, {})
        assert outputs == {"o": [None, None, None]}

    def test_kernel_missing_output_rejected(self):
        actor = Actor("A", kernel=lambda k, inputs: {})
        actor.add_output("o")
        with pytest.raises(GraphError, match="did not produce"):
            actor.fire(0, {})

    def test_missing_outputs_follow_ports_added_later(self):
        actor = Actor("A", kernel=lambda k, inputs: {"o": [1], "x": [2]})
        actor.add_input("i")
        actor.add_output("o")
        assert actor.fire(0, {})["o"] == [1]
        actor.add_output("q")
        actor.add_output("p")
        with pytest.raises(GraphError, match=r"ports \['p', 'q'\]$"):
            actor.fire(1, {})

    def test_callable_cycles(self):
        actor = Actor("A", cycles=lambda k, inputs: 10 * (k + 1))
        assert actor.execution_cycles(0) == 10
        assert actor.execution_cycles(2) == 30

    def test_negative_cycles_rejected(self):
        actor = Actor("A", cycles=lambda k, inputs: -1)
        with pytest.raises(GraphError, match="negative"):
            actor.execution_cycles(0)

    def test_is_dynamic_reflects_ports(self):
        actor = Actor("A")
        actor.add_output("o")
        assert not actor.is_dynamic
        actor.add_output("d", rate=DynamicRate(2))
        assert actor.is_dynamic


class TestDataflowGraph:
    def test_duplicate_actor_rejected(self):
        graph = DataflowGraph()
        graph.actor("A")
        with pytest.raises(GraphError, match="duplicate"):
            graph.actor("A")

    def test_connect_by_tuple_and_port(self):
        graph = DataflowGraph()
        a = graph.actor("A")
        b = graph.actor("B")
        out = a.add_output("o")
        b.add_input("i")
        edge = graph.connect(out, (b, "i"))
        assert edge.src_actor is a
        assert edge.snk_actor is b

    def test_connect_rejects_foreign_port(self):
        graph = DataflowGraph()
        graph.actor("A").add_output("o")
        other = DataflowGraph()
        b = other.actor("B")
        b.add_input("i")
        with pytest.raises(GraphError, match="does not belong"):
            graph.connect((graph.get_actor("A"), "o"), (b, "i"))

    def test_output_port_single_use(self):
        graph = DataflowGraph()
        a = graph.actor("A")
        a.add_output("o")
        b = graph.actor("B")
        b.add_input("i")
        c = graph.actor("C")
        c.add_input("i")
        graph.connect((a, "o"), (b, "i"))
        with pytest.raises(GraphError, match="already connected"):
            graph.connect((a, "o"), (c, "i"))

    def test_validate_flags_unconnected_port(self):
        graph = DataflowGraph()
        a = graph.actor("A")
        a.add_output("o")
        with pytest.raises(GraphError, match="unconnected"):
            graph.validate()

    def test_interface_port_passes_validation(self):
        graph = DataflowGraph()
        a = graph.actor("A")
        port = a.add_output("o")
        graph.mark_interface(port)
        graph.validate()
        assert graph.is_interface_port(port)

    def test_token_size_mismatch_rejected(self):
        graph = DataflowGraph()
        a = graph.actor("A")
        a.add_output("o", token_bytes=2)
        b = graph.actor("B")
        b.add_input("i", token_bytes=4)
        graph.connect((a, "o"), (b, "i"))
        with pytest.raises(GraphError, match="token size"):
            graph.validate()

    def test_topological_order_ignores_delay_edges(self, cyclic_graph):
        order = [a.name for a in cyclic_graph.topological_order()]
        assert order == ["A", "B"]

    def test_topological_order_detects_zero_delay_cycle(self):
        graph = DataflowGraph()
        a = graph.actor("A")
        b = graph.actor("B")
        a.add_input("i")
        a.add_output("o")
        b.add_input("i")
        b.add_output("o")
        graph.connect((a, "o"), (b, "i"))
        graph.connect((b, "o"), (a, "i"))  # no delay
        with pytest.raises(GraphError, match="cycle"):
            graph.topological_order()

    def test_self_loop_edge(self):
        graph = DataflowGraph()
        a = graph.actor("A")
        loop = graph.connect(
            a.add_output("state_out"), a.add_input("state_in"), delay=1
        )
        assert loop.is_selfloop
        b = graph.actor("B")
        forward = graph.connect(a.add_output("y"), b.add_input("x"))
        assert not forward.is_selfloop

    def test_successors(self, chain_graph):
        b = chain_graph.get_actor("B")
        assert [a.name for a in chain_graph.successors(b)] == ["C"]

    def test_edge_between(self, chain_graph):
        edge = chain_graph.edge_between("A", "B")
        assert edge.src_actor.name == "A"
        with pytest.raises(GraphError, match="no edge"):
            chain_graph.edge_between("C", "A")

    def test_copy_structure_preserves_everything(self, multirate_graph):
        clone = multirate_graph.copy_structure()
        assert len(clone) == len(multirate_graph)
        assert len(clone.edges) == len(multirate_graph.edges)
        for orig, copy in zip(multirate_graph.edges, clone.edges):
            assert orig.source.rate == copy.source.rate
            assert orig.delay == copy.delay
            assert orig.name == copy.name

    def test_copy_structure_preserves_initial_tokens(self, cyclic_graph):
        edge = cyclic_graph.edge_between("B", "A")
        edge.set_initial_tokens([42])
        clone = cyclic_graph.copy_structure()
        assert clone.edge_between("B", "A").initial_tokens == [42]

    def test_initial_tokens_length_checked(self, cyclic_graph):
        edge = cyclic_graph.edge_between("B", "A")
        with pytest.raises(GraphError, match="initial values"):
            edge.set_initial_tokens([1, 2])

    def test_to_dot_contains_actors_and_edges(self, chain_graph):
        dot = chain_graph.to_dot()
        assert '"A" -> "B"' in dot
        assert "digraph" in dot

    def test_dynamic_edge_classification(self, fig1_graph):
        assert fig1_graph.is_dynamic
        assert len(fig1_graph.dynamic_edges) == 1

    def test_edge_rejects_wrong_port_directions(self):
        graph = DataflowGraph()
        a = graph.actor("A")
        b = graph.actor("B")
        a.add_input("i")
        b.add_input("i")
        with pytest.raises(GraphError, match="not an output"):
            graph.connect((a, "i"), (b, "i"))

    def test_negative_delay_rejected(self):
        graph = DataflowGraph()
        a = graph.actor("A")
        b = graph.actor("B")
        a.add_output("o")
        b.add_input("i")
        with pytest.raises(GraphError, match="delay"):
            graph.connect((a, "o"), (b, "i"), delay=-1)


class TestConcatBlocks:
    def test_arrays_of_one_dtype_join(self):
        joined = concat_blocks([np.arange(3.0), np.arange(2.0)])
        assert isinstance(joined, np.ndarray)
        assert joined.tolist() == [0.0, 1.0, 2.0, 0.0, 1.0]

    def test_a_lone_array_is_returned_as_it_is(self):
        block = np.arange(4)
        assert concat_blocks([block]) is block

    def test_mixed_dtypes_fall_back_to_a_token_list(self):
        joined = concat_blocks([np.array([1, 2]), np.array([0.5])])
        assert isinstance(joined, list)
        assert joined == [1, 2, 0.5]

    def test_token_shapes_must_match_to_join(self):
        joined = concat_blocks([np.zeros((1, 2)), np.zeros((1, 3))])
        assert isinstance(joined, list) and len(joined) == 2

    def test_lists_keep_token_order(self):
        assert concat_blocks([["a"], [], ["b", "c"]]) == ["a", "b", "c"]
        assert concat_blocks([]) == []
