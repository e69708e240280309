"""Unit and property tests for SDF analysis (repetitions vector, PASS)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import (
    DataflowGraph,
    DeadlockError,
    InconsistentGraphError,
    SdfError,
    build_pass,
    repetitions_vector,
)


class TestRepetitionsVector:
    def test_homogeneous_chain(self, chain_graph):
        assert repetitions_vector(chain_graph) == {"A": 1, "B": 1, "C": 1}

    def test_multirate_chain(self, multirate_graph):
        assert repetitions_vector(multirate_graph) == {"A": 3, "B": 2, "C": 1}

    def test_balance_equations_hold(self, multirate_graph):
        reps = repetitions_vector(multirate_graph)
        for edge in multirate_graph.edges:
            assert (
                reps[edge.src_actor.name] * edge.source.rate
                == reps[edge.snk_actor.name] * edge.sink.rate
            )

    def test_inconsistent_graph_rejected(self):
        graph = DataflowGraph("bad")
        a = graph.actor("A")
        b = graph.actor("B")
        a.add_output("o1", rate=2)
        a.add_output("o2", rate=3)
        b.add_input("i1", rate=1)
        b.add_input("i2", rate=1)
        graph.connect((a, "o1"), (b, "i1"))
        graph.connect((a, "o2"), (b, "i2"))
        with pytest.raises(InconsistentGraphError):
            repetitions_vector(graph)

    def test_disconnected_components_each_minimal(self):
        graph = DataflowGraph("two")
        a = graph.actor("A")
        b = graph.actor("B")
        a.add_output("o", rate=2)
        b.add_input("i", rate=4)
        graph.connect((a, "o"), (b, "i"))
        x = graph.actor("X")
        y = graph.actor("Y")
        x.add_output("o", rate=3)
        y.add_input("i", rate=1)
        graph.connect((x, "o"), (y, "i"))
        reps = repetitions_vector(graph)
        assert reps == {"A": 2, "B": 1, "X": 1, "Y": 3}

    def test_self_loop_equal_rates_ok(self):
        graph = DataflowGraph()
        a = graph.actor("A")
        a.add_output("o", rate=2)
        a.add_input("i", rate=2)
        graph.connect((a, "o"), (a, "i"), delay=2)
        assert repetitions_vector(graph) == {"A": 1}

    def test_self_loop_mismatched_rates_rejected(self):
        graph = DataflowGraph()
        a = graph.actor("A")
        a.add_output("o", rate=2)
        a.add_input("i", rate=3)
        graph.connect((a, "o"), (a, "i"), delay=6)
        with pytest.raises(InconsistentGraphError, match="self-loop"):
            repetitions_vector(graph)

    def test_dynamic_graph_rejected(self, fig1_graph):
        with pytest.raises(SdfError, match="dynamic"):
            repetitions_vector(fig1_graph)

    def test_empty_graph_rejected(self):
        with pytest.raises(SdfError, match="empty"):
            repetitions_vector(DataflowGraph())

    @given(p=st.integers(1, 12), c=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_two_actor_vector_is_minimal(self, p, c):
        graph = DataflowGraph("pc")
        a = graph.actor("A")
        b = graph.actor("B")
        a.add_output("o", rate=p)
        b.add_input("i", rate=c)
        graph.connect((a, "o"), (b, "i"))
        reps = repetitions_vector(graph)
        # balance plus minimality (gcd of the vector is 1)
        assert reps["A"] * p == reps["B"] * c
        import math

        assert math.gcd(reps["A"], reps["B"]) == 1


class TestPass:
    def test_pass_counts_match_repetitions(self, multirate_graph):
        schedule = build_pass(multirate_graph)
        counts = {}
        for actor in schedule:
            counts[actor.name] = counts.get(actor.name, 0) + 1
        assert counts == repetitions_vector(multirate_graph)

    def test_pass_respects_precedence(self, chain_graph):
        names = [a.name for a in build_pass(chain_graph)]
        assert names.index("A") < names.index("B") < names.index("C")

    def test_deadlock_detected(self):
        graph = DataflowGraph("dead")
        a = graph.actor("A")
        b = graph.actor("B")
        a.add_input("i")
        a.add_output("o")
        b.add_input("i")
        b.add_output("o")
        graph.connect((a, "o"), (b, "i"))
        graph.connect((b, "o"), (a, "i"))  # zero-delay cycle
        with pytest.raises(DeadlockError):
            build_pass(graph)

    def test_delay_breaks_deadlock(self, cyclic_graph):
        schedule = build_pass(cyclic_graph)
        assert [a.name for a in schedule] == ["A", "B"]

    def test_insufficient_delay_on_multirate_cycle(self):
        graph = DataflowGraph("tight")
        a = graph.actor("A")
        b = graph.actor("B")
        a.add_input("i", rate=2)
        a.add_output("o", rate=2)
        b.add_input("i", rate=2)
        b.add_output("o", rate=2)
        graph.connect((a, "o"), (b, "i"))
        graph.connect((b, "o"), (a, "i"), delay=1)  # needs 2
        with pytest.raises(DeadlockError):
            build_pass(graph)

    def test_pass_is_deterministic(self, multirate_graph):
        first = [a.name for a in build_pass(multirate_graph)]
        second = [a.name for a in build_pass(multirate_graph)]
        assert first == second
