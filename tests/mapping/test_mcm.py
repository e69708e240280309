"""Unit tests for maximum cycle mean and self-timed simulation."""

import json
import math
import random

import pytest

from repro.mapping import (
    McmResult,
    TimedEdge,
    TimedVertex,
    maximum_cycle_mean,
    maximum_cycle_mean_result,
    simulate_selftimed,
)
from repro.mapping.graph_arrays import strongly_connected_components
from tests.conftest import EditableGraph, build_random_timed_graph, editable


def ring(cycles, delays):
    """n-task ring with given execution times and per-edge delays."""
    graph = EditableGraph("ring")
    n = len(cycles)
    for i, c in enumerate(cycles):
        graph.add_vertex(TimedVertex(f"t{i}", cycles=c, pe=i))
    for i in range(n):
        graph.add_edge(
            TimedEdge(f"t{i}", f"t{(i + 1) % n}", delay=delays[i])
        )
    return graph.freeze()


class TestMaximumCycleMean:
    def test_simple_ring(self):
        graph = ring([10, 20], [0, 1])
        # one cycle: total time 30, total delay 1 -> MCM 30
        assert maximum_cycle_mean(graph) == pytest.approx(30, rel=1e-5)

    def test_more_delay_lowers_mcm(self):
        graph = ring([10, 20], [1, 1])
        assert maximum_cycle_mean(graph) == pytest.approx(15, rel=1e-5)

    def test_max_over_cycles(self):
        graph = editable(ring([10, 20], [0, 1]))
        # add a second, slower cycle through t0
        graph.add_vertex(TimedVertex("slow", cycles=100, pe=2))
        graph.add_edge(TimedEdge("t0", "slow", delay=0))
        graph.add_edge(TimedEdge("slow", "t0", delay=1))
        assert maximum_cycle_mean(graph.freeze()) == pytest.approx(
            110, rel=1e-5
        )

    def test_acyclic_graph_is_zero(self):
        graph = EditableGraph()
        graph.add_vertex(TimedVertex("a", 5, 0))
        graph.add_vertex(TimedVertex("b", 5, 1))
        graph.add_edge(TimedEdge("a", "b", delay=0))
        assert maximum_cycle_mean(graph.freeze()) == 0.0

    def test_zero_delay_cycle_is_infinite(self):
        graph = ring([1, 1], [0, 0])
        assert maximum_cycle_mean(graph) == math.inf

    def test_empty_graph(self):
        assert maximum_cycle_mean(EditableGraph().freeze()) == 0.0


class TestMcmResultRecord:
    @pytest.mark.parametrize(
        "graph", [ring([10, 20], [0, 1]), ring([1, 1], [0, 0])],
        ids=["finite", "deadlock"],
    )
    def test_json_round_trip(self, graph):
        result = maximum_cycle_mean_result(graph)
        payload = json.loads(json.dumps(result.to_dict()))
        assert McmResult.from_dict(payload) == result


def reachable(graph, start):
    seen, stack = {start}, [start]
    while stack:
        u = stack.pop()
        for edge in graph.edges:
            if edge.src == u and edge.snk not in seen:
                seen.add(edge.snk)
                stack.append(edge.snk)
    return seen


class TestCycleStructure:
    def test_components_are_mutual_reachability_classes(self):
        rng = random.Random(3)
        for _ in range(40):
            graph = build_random_timed_graph(rng)
            reach = {v: reachable(graph, v) for v in graph.names}
            components = strongly_connected_components(graph)
            assert sorted(v for c in components for v in c) == list(
                range(graph.n)
            )
            for component in components:
                names = {graph.names[v] for v in component}
                for u in names:
                    assert {w for w in reach[u] if u in reach[w]} == names

    def test_zero_delay_cycle_is_a_real_cycle_iff_deadlock(self):
        rng = random.Random(5)
        for _ in range(40):
            graph = build_random_timed_graph(rng, max_delay=1)
            cycle = [graph.names[v] for v in graph.zero_delay_cycle()]
            assert bool(cycle) == math.isinf(maximum_cycle_mean(graph))
            zero_delay = {
                (e.src, e.snk) for e in graph.edges if e.delay == 0
            }
            for u, v in zip(cycle, cycle[1:] + cycle[:1]):
                assert (u, v) in zero_delay


class TestSelfTimedSimulation:
    def test_period_matches_mcm(self):
        graph = ring([10, 20], [0, 1])
        trace = simulate_selftimed(graph, iterations=20)
        assert trace.iteration_period("t0") == pytest.approx(
            maximum_cycle_mean(graph), rel=1e-3
        )

    def test_pipeline_throughput_with_more_delay(self):
        """Extra delay tokens let the two PEs pipeline: the period
        approaches the MCM of 15 (cycle time 30 over 2 delays)."""
        graph = ring([10, 20], [1, 1])
        trace = simulate_selftimed(graph, iterations=60)
        period = trace.iteration_period("t0")
        assert period == pytest.approx(15, rel=0.05)
        assert period >= maximum_cycle_mean(graph) - 1e-6

    def test_eq3_start_end_times(self):
        graph = ring([10, 20], [0, 1])
        trace = simulate_selftimed(graph, iterations=3)
        # iteration 0: t0 starts at 0, t1 at 10
        assert trace.start[("t0", 0)] == 0
        assert trace.start[("t1", 0)] == 10
        # iteration 1 of t0 waits for end of t1 iteration 0 (delay 1)
        assert trace.start[("t0", 1)] == 30

    def test_makespan(self):
        graph = ring([10, 20], [0, 1])
        trace = simulate_selftimed(graph, iterations=1)
        assert trace.makespan() == 30

    def test_deadlock_rejected(self):
        graph = ring([1, 1], [0, 0])
        with pytest.raises(ValueError, match="zero-delay"):
            simulate_selftimed(graph, iterations=2)

    def test_period_needs_enough_iterations(self):
        graph = ring([10, 20], [0, 1])
        trace = simulate_selftimed(graph, iterations=3)
        with pytest.raises(ValueError, match="iterations"):
            trace.iteration_period("t0")

    def test_simulated_period_never_beats_mcm(self):
        """MCM is a provable lower bound on the self-timed period."""
        for delays in ([0, 1], [1, 1], [2, 1]):
            graph = ring([7, 13], delays)
            trace = simulate_selftimed(graph, iterations=25)
            period = trace.iteration_period("t0")
            assert period >= maximum_cycle_mean(graph) - 1e-6
