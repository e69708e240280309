"""Property and exactness tests for the array-backed analysis engine.

Covers the analysis layer end to end: Howard's-iteration MCM against
the self-timed simulation, exactness on the deadlock / acyclic /
parallel-edge / self-loop corners, the all-pairs min-delay matrix and
its single-edge insertion/removal repair against full recomputation, the memoized ``min_delay_paths``
invalidation rules, deterministic topological ordering, the closed-form
HSDF expansion against the per-token definition.  Value-level regressions of the
whole stack are pinned by ``tests/golden``.
"""

import itertools
import math
import random

import numpy as np
import pytest

from repro.conformance.generator import GraphShape, generate_spec
from repro.conformance.spec import build_case
from repro.dataflow import DataflowGraph
from repro.dataflow import hsdf as hsdf_module
from repro.dataflow.hsdf import hsdf_expand
from repro.mapping import (
    EdgeKind,
    TimedEdge,
    TimedGraph,
    TimedVertex,
    maximum_cycle_mean_result,
    simulate_selftimed,
)
from repro.mapping.graph_arrays import (
    NO_PATH,
    insert_edge_min_delay,
    min_delay_matrix,
    remove_edge_min_delay,
)
from repro.mapping.mcm import zero_delay_topological_order
from repro.spi import SpiConfig, SpiSystem
from tests.conftest import build_random_timed_graph as random_timed_graph


def ring(cycles, delays, name="ring"):
    graph = TimedGraph(name)
    n = len(cycles)
    for i, c in enumerate(cycles):
        graph.add_vertex(TimedVertex(f"t{i}", cycles=c, pe=i))
    for i in range(n):
        graph.add_edge(TimedEdge(f"t{i}", f"t{(i + 1) % n}", delay=delays[i]))
    return graph


def assert_witness_consistent(graph, result):
    """The witness must be a real cycle whose ratio is the value."""
    if not result.cycle:
        return
    assert result.value == result.total_cycles / result.total_delay
    edge_pairs = {(e.src, e.snk) for e in graph.edges}
    n = len(result.cycle)
    for i, src in enumerate(result.cycle):
        snk = result.cycle[(i + 1) % n]
        assert (src, snk) in edge_pairs
    assert result.total_cycles == sum(
        graph.vertex(name).cycles for name in result.cycle
    )


#: 50-seed campaign spanning the generator's regimes:
#: plain multirate, collective connections, batched/heterogeneous.
_CAMPAIGN = (
    [(seed, GraphShape()) for seed in range(20)]
    + [
        (seed, GraphShape(collective_prob=0.9, max_pes=3))
        for seed in range(20, 35)
    ]
    + [
        (seed, GraphShape(batch_prob=0.9, max_batch=4, max_pes=3))
        for seed in range(35, 50)
    ]
)


class TestHowardEquivalenceCampaign:
    @pytest.mark.parametrize("seed,shape", _CAMPAIGN)
    def test_howard_matches_selftimed_slope(self, seed, shape):
        case = build_case(generate_spec(seed, shape))
        system = SpiSystem.compile(case.graph, case.partition, SpiConfig())
        reference = (
            system.resync_result.graph
            if system.resync_result is not None
            else system.sync_graph
        )
        howard = maximum_cycle_mean_result(reference)
        if howard.is_deadlock:
            return
        assert_witness_consistent(reference, howard)

        # The self-timed makespan grows at exactly the MCM rate once the
        # transient settles; the window-averaged slope converges with an
        # O(1/window) error bounded by the schedule's time spread.
        iterations = 120
        window = 60
        trace = simulate_selftimed(reference, iterations=iterations)
        makespan = [
            max(
                trace.end[(v.name, k)]
                for v in reference.vertices
            )
            for k in (iterations - 1 - window, iterations - 1)
        ]
        slope = (makespan[1] - makespan[0]) / window
        spread = sum(v.cycles for v in reference.vertices)
        assert slope == pytest.approx(
            howard.value, abs=2 * spread / window + 1e-6
        )
        assert slope >= howard.value - 1e-6


class TestHowardExactness:
    def test_zero_delay_cycle_is_infinite_with_witness(self):
        graph = ring([1, 2], [0, 0])
        result = maximum_cycle_mean_result(graph)
        assert result.value == math.inf
        assert result.is_deadlock
        assert result.total_delay == 0
        assert set(result.cycle) == {"t0", "t1"}

    def test_acyclic_graph_is_exactly_zero(self):
        graph = TimedGraph()
        graph.add_vertex(TimedVertex("a", 5, 0))
        graph.add_vertex(TimedVertex("b", 7, 1))
        graph.add_edge(TimedEdge("a", "b", delay=0))
        result = maximum_cycle_mean_result(graph)
        assert result.value == 0.0
        assert result.cycle == ()

    def test_exact_value_no_search_tolerance(self):
        # The answer is the exact quotient of integer sums, with no
        # search tolerance.
        graph = ring([10, 10, 10], [0, 0, 3])
        result = maximum_cycle_mean_result(graph)
        assert result.value == 10.0
        assert (result.total_cycles, result.total_delay) == (30, 3)

    def test_exact_rational_value(self):
        graph = ring([1, 0, 0], [1, 1, 1])
        result = maximum_cycle_mean_result(graph)
        assert result.value == 1 / 3

    def test_parallel_edges_use_min_delay(self):
        graph = ring([10, 20], [0, 3])
        # A tighter parallel edge dominates the slack one.
        graph.add_edge(TimedEdge("t1", "t0", delay=1))
        result = maximum_cycle_mean_result(graph)
        assert result.value == 30.0
        assert result.total_delay == 1

    def test_self_loop(self):
        graph = TimedGraph()
        graph.add_vertex(TimedVertex("solo", 7, 0))
        graph.add_edge(TimedEdge("solo", "solo", delay=2))
        result = maximum_cycle_mean_result(graph)
        assert result.value == 3.5
        assert result.cycle == ("solo",)

    def test_self_loop_competing_with_ring(self):
        graph = ring([3, 3], [1, 1])  # ring MCM = 3
        graph.add_edge(TimedEdge("t0", "t0", delay=1))  # self-loop 3/1 = 3
        graph.add_vertex(TimedVertex("hot", 9, 2))
        graph.add_edge(TimedEdge("hot", "hot", delay=2))  # 4.5 wins
        result = maximum_cycle_mean_result(graph)
        assert result.value == 4.5
        assert result.cycle == ("hot",)

    def test_random_graph_witnesses_are_exact(self):
        rng = random.Random(2024)
        for _ in range(150):
            graph = random_timed_graph(rng)
            result = maximum_cycle_mean_result(graph)
            if result.is_deadlock:
                assert result.total_delay == 0
                assert graph.has_zero_delay_cycle()
                continue
            assert_witness_consistent(graph, result)


def reference_matrix(graph):
    """``TimedGraph.min_delay_paths()`` as a matrix in vertex order."""
    names = [v.name for v in graph.vertices]
    table = graph.min_delay_paths()
    return np.array(
        [[table[i].get(j, NO_PATH) for j in names] for i in names],
        dtype=np.int64,
    )


class TestMinDelayMatrix:
    def test_matches_reference_under_random_mutations(self):
        """Insertion relaxation and removal row repair stay exact."""
        rng = random.Random(99)
        for _ in range(60):
            graph = random_timed_graph(rng, max_vertices=9, max_edges=20)
            index = {v.name: i for i, v in enumerate(graph.vertices)}
            n = len(index)
            edges = list(graph.edges)
            src = np.array([index[e.src] for e in edges], dtype=np.int64)
            snk = np.array([index[e.snk] for e in edges], dtype=np.int64)
            delay = np.array([e.delay for e in edges], dtype=np.int64)
            alive = np.ones(len(edges), dtype=bool)
            rho = min_delay_matrix(n, src, snk, delay)
            assert np.array_equal(rho, reference_matrix(graph))
            for _ in range(rng.randint(1, 10)):
                live = np.flatnonzero(alive)
                if live.size and rng.random() < 0.6:
                    victim = int(live[rng.randrange(live.size)])
                    graph.remove_edge(edges[victim])
                    alive[victim] = False
                    remove_edge_min_delay(
                        rho,
                        int(src[victim]),
                        int(snk[victim]),
                        int(delay[victim]),
                        src,
                        snk,
                        delay,
                        alive,
                    )
                else:
                    u, v = rng.randrange(n), rng.randrange(n)
                    d = rng.randint(0, 4)
                    edge = TimedEdge(
                        src=f"v{u}", snk=f"v{v}", delay=d, kind=EdgeKind.SYNC
                    )
                    graph.add_edge(edge)
                    edges.append(edge)
                    src = np.append(src, u)
                    snk = np.append(snk, v)
                    delay = np.append(delay, d)
                    alive = np.append(alive, True)
                    rho = insert_edge_min_delay(rho, u, v, d)
                assert np.array_equal(rho, reference_matrix(graph))

    def test_removal_repairs_only_rows_through_the_edge(self):
        # t0 -> t1 -> t2 with a slower bypass t0 -> t2; removing t1 -> t2
        # changes row t0 and row t1 only.
        graph = ring([1, 1, 1], [0, 0, 5])
        bypass = TimedEdge("t0", "t2", delay=3, kind=EdgeKind.SYNC)
        graph.add_edge(bypass)
        edges = list(graph.edges)
        src = np.array([int(e.src[1:]) for e in edges], dtype=np.int64)
        snk = np.array([int(e.snk[1:]) for e in edges], dtype=np.int64)
        delay = np.array([e.delay for e in edges], dtype=np.int64)
        alive = np.ones(len(edges), dtype=bool)
        rho = min_delay_matrix(3, src, snk, delay)
        row_t2 = rho[2].copy()
        alive[1] = False
        graph.remove_edge(edges[1])
        remove_edge_min_delay(rho, 1, 2, 0, src, snk, delay, alive)
        assert np.array_equal(rho, reference_matrix(graph))
        assert rho[0, 2] == 3 and rho[1, 2] == NO_PATH
        assert np.array_equal(rho[2], row_t2)


class TestMinDelayMemo:
    def test_repeated_calls_return_memo(self):
        graph = ring([1, 1], [1, 1])
        first = graph.min_delay_paths()
        assert graph.min_delay_paths() is first

    def test_add_edge_invalidates(self):
        graph = ring([1, 1], [3, 3])
        before = graph.min_delay_paths()
        graph.add_edge(TimedEdge("t0", "t1", delay=1, kind=EdgeKind.SYNC))
        after = graph.min_delay_paths()
        assert after is not before
        assert after["t0"]["t1"] == 1

    def test_remove_edge_invalidates(self):
        graph = ring([1, 1], [3, 3])
        shortcut = TimedEdge("t0", "t1", delay=1, kind=EdgeKind.SYNC)
        graph.add_edge(shortcut)
        assert graph.min_delay_paths()["t0"]["t1"] == 1
        graph.remove_edge(shortcut)
        assert graph.min_delay_paths()["t0"]["t1"] == 3

    def test_add_vertex_invalidates(self):
        graph = ring([1, 1], [1, 1])
        before = graph.min_delay_paths()
        graph.add_vertex(TimedVertex("new", 1, 0))
        after = graph.min_delay_paths()
        assert after is not before
        assert "new" in after


class TestTopologicalDeterminism:
    def test_order_independent_of_insertion_order(self):
        def build(vertex_order, edge_order):
            graph = TimedGraph("topo")
            for name in vertex_order:
                graph.add_vertex(TimedVertex(name, 1, 0))
            for src, snk in edge_order:
                graph.add_edge(TimedEdge(src, snk, delay=0))
            return graph

        edges = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        orders = set()
        rng = random.Random(5)
        for _ in range(6):
            vertices = ["a", "b", "c", "d"]
            shuffled = list(edges)
            rng.shuffle(vertices)
            rng.shuffle(shuffled)
            graph = build(vertices, shuffled)
            orders.add(tuple(zero_delay_topological_order(graph)))
        # The heap-based Kahn order is the unique lexicographically
        # smallest topological order, whatever the insertion order.
        assert orders == {("a", "b", "c", "d")}


def enumerate_dependencies(p, c, d, q_src, q_snk, m):
    """Per-token definition of the HSDF invocation dependencies.

    Consumer invocation ``j`` of iteration ``m`` reads global tokens
    ``(m*q_snk + j)*c .. +c-1``; token ``t`` was produced by global
    producer invocation ``(t - d) // p``, i.e. invocation ``i`` of
    iteration ``n``; the edge ``(i, j)`` carries the smallest offset
    ``m - n`` over all tokens it moves.
    """
    deps = {}
    for j in range(q_snk):
        for offset in range(c):
            t = (m * q_snk + j) * c + offset
            n, i = divmod((t - d) // p, q_src)
            if (i, j) not in deps or m - n < deps[(i, j)]:
                deps[(i, j)] = m - n
    return deps


class TestClosedFormHsdf:
    def _graphs(self):
        rng = random.Random(11)
        for trial in range(25):
            graph = DataflowGraph(f"mr{trial}")
            n = rng.randint(2, 5)
            # Derive consistent rates from a target repetitions vector:
            # for q_a firings of the producer and q_b of the consumer,
            # rates (q_b/g, q_a/g) balance the edge exactly.
            reps = [rng.randint(1, 4) for _ in range(n)]
            actors = [
                graph.actor(f"A{i}", cycles=rng.randint(1, 5))
                for i in range(n)
            ]

            def balanced_rates(i, j):
                g = math.gcd(reps[i], reps[j])
                scale = rng.randint(1, 2)
                return reps[j] // g * scale, reps[i] // g * scale

            for i in range(n - 1):
                p, c = balanced_rates(i, i + 1)
                out = actors[i].add_output(f"o{i}", rate=p)
                inp = actors[i + 1].add_input(f"i{i}", rate=c)
                graph.connect(out, inp, delay=rng.randint(0, 6))
            p, c = balanced_rates(n - 1, 0)
            out = actors[-1].add_output("fb_o", rate=p)
            inp = actors[0].add_input("fb_i", rate=c)
            graph.connect(out, inp, delay=rng.randint(24, 48))
            yield graph

    @staticmethod
    def _shape(expanded):
        return (
            sorted(a.name for a in expanded.actors),
            sorted(
                (
                    e.src_actor.name,
                    e.snk_actor.name,
                    e.source.name,
                    e.sink.name,
                    e.delay,
                    e.name,
                )
                for e in expanded.edges
            ),
        )

    def test_closed_form_matches_definition_on_exhaustive_grid(self):
        grid = itertools.product(
            range(1, 5),  # p
            range(1, 5),  # c
            range(0, 9),  # d
            range(1, 5),  # q_src
            range(1, 5),  # q_snk
            range(1, 4),  # m
        )
        for p, c, d, q_src, q_snk, m in grid:
            assert hsdf_module._edge_dependencies(
                p, c, d, q_src, q_snk, m
            ) == enumerate_dependencies(p, c, d, q_src, q_snk, m), (
                p, c, d, q_src, q_snk, m
            )

    def test_expansion_identical_to_per_token_definition(self, monkeypatch):
        graphs = list(self._graphs())
        fast = [self._shape(hsdf_expand(graph)) for graph in graphs]
        monkeypatch.setattr(
            hsdf_module, "_edge_dependencies", enumerate_dependencies
        )
        slow = [self._shape(hsdf_expand(graph)) for graph in graphs]
        assert fast == slow
