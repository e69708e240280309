"""Unit and property tests for resynchronization (paper §4.1)."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dataflow.sdf
import repro.mapping.graph_arrays
import repro.mapping.mcm
import repro.mapping.resync
import repro.spi.runtime
from repro.conformance.generator import generate_spec
from repro.conformance.spec import build_case
from repro.mapping import (
    EdgeKind,
    Partition,
    TimedEdge,
    TimedVertex,
    maximum_cycle_mean,
    maximum_cycle_mean_result,
    resynchronize,
)
from repro.mapping.resync import SyncGraphSnapshot
from repro.service import AnalysisCache
from repro.spi.runtime import SpiSystem
from tests.conftest import (
    EditableGraph,
    build_pipeline_graph,
    build_random_sync_graph,
    editable,
    is_redundant,
    prune_sync_graph,
    sync_cost,
)


def fan_graph(n_targets=3):
    """One producer PE fanning out sync edges to n consumer tasks that
    are chained on one other PE — the textbook resynchronization case:
    a single sync to the head of the chain subsumes all the others."""
    graph = EditableGraph("fan")
    graph.add_vertex(TimedVertex("src", cycles=1, pe=0))
    previous = None
    for i in range(n_targets):
        name = f"t{i}"
        graph.add_vertex(TimedVertex(name, cycles=1, pe=1))
        if previous is not None:
            graph.add_edge(
                TimedEdge(previous, name, delay=0, kind=EdgeKind.INTRA)
            )
        graph.add_edge(
            TimedEdge("src", name, delay=0, kind=EdgeKind.SYNC)
        )
        previous = name
    return graph.freeze()


class TestRemoveRedundant:
    def test_fan_collapses_to_head_sync(self):
        graph = fan_graph(3)
        pruned, removed, _ = prune_sync_graph(graph)
        # syncs to t1 and t2 are implied by the sync to t0 + intra chain
        assert len(removed) == 2
        survivors = {
            (e.src, e.snk)
            for e in pruned.edges
            if e.kind == EdgeKind.SYNC
        }
        assert survivors == {("src", "t0")}

    def test_mutually_vouching_pair_keeps_one(self):
        graph = EditableGraph()
        graph.add_vertex(TimedVertex("a", 1, 0))
        graph.add_vertex(TimedVertex("b", 1, 1))
        graph.add_edge(TimedEdge("a", "b", delay=0, kind=EdgeKind.SYNC))
        graph.add_edge(TimedEdge("a", "b", delay=0, kind=EdgeKind.SYNC))
        pruned, removed, _ = prune_sync_graph(graph)
        assert len(removed) == 1
        assert len(pruned.edges) == 1

    def test_intra_edges_never_removed(self):
        graph = fan_graph(3)
        pruned, _, _ = prune_sync_graph(graph)
        intra = pruned.edges_of_kind(EdgeKind.INTRA)
        assert len(intra) == 2

    def test_semantics_preserved(self):
        """Every removed constraint stays implied by the pruned graph."""
        graph = fan_graph(4)
        pruned, removed, _ = prune_sync_graph(graph)
        rho = pruned.min_delay_paths()
        for edge in removed:
            assert rho[edge.src].get(edge.snk, edge.delay + 1) <= edge.delay


class TestResynchronize:
    def test_reports_costs(self):
        graph = fan_graph(3)
        result = resynchronize(graph)
        assert result.cost_before == 3
        assert result.cost_after <= 1

    def test_never_increases_mcm(self):
        graph = editable(fan_graph(3))
        # close the loop so there is a finite MCM to preserve
        graph.add_edge(TimedEdge("t2", "src", delay=1, kind=EdgeKind.SYNC))
        before = maximum_cycle_mean(graph.freeze())
        result = resynchronize(graph.freeze())
        assert result.mcm_after <= before * (1 + 1e-5) + 1e-5

    def test_no_zero_delay_cycles_introduced(self):
        graph = fan_graph(4)
        result = resynchronize(graph)
        assert not result.graph.zero_delay_cycle()

    def test_ack_edges_removable(self):
        """A redundant acknowledgment edge disappears (the paper's SPI
        optimisation: redundant acks are never sent)."""
        graph = EditableGraph()
        graph.add_vertex(TimedVertex("send", 1, 0))
        graph.add_vertex(TimedVertex("recv", 1, 1))
        graph.add_vertex(TimedVertex("reply", 1, 1))
        graph.add_vertex(TimedVertex("home", 1, 0))
        graph.add_edge(TimedEdge("send", "recv", delay=0, kind=EdgeKind.IPC))
        graph.add_edge(TimedEdge("recv", "reply", delay=0, kind=EdgeKind.INTRA))
        graph.add_edge(TimedEdge("reply", "home", delay=0, kind=EdgeKind.IPC))
        graph.add_edge(TimedEdge("home", "send", delay=1, kind=EdgeKind.INTRA))
        ack = graph.add_edge(
            TimedEdge("recv", "send", delay=4, kind=EdgeKind.ACK)
        )
        assert is_redundant(graph, ack)
        pruned, removed, _ = prune_sync_graph(graph)
        assert ack in removed
        assert not pruned.edges_of_kind(EdgeKind.ACK)

    def test_resync_preserves_all_original_constraints(self):
        graph = fan_graph(5)
        result = resynchronize(graph)
        rho = result.graph.min_delay_paths()
        for edge in graph.edges:
            # implied: a path with at most the original delay exists
            assert rho[edge.src].get(edge.snk, edge.delay + 1) <= edge.delay

    @given(n=st.integers(2, 6))
    @settings(max_examples=10, deadline=None)
    def test_fan_always_improves_or_holds(self, n):
        graph = fan_graph(n)
        result = resynchronize(graph)
        assert result.cost_after <= result.cost_before
        # at minimum the chain head sync remains
        assert result.cost_after >= 1


# -- the object-level definition, kept here as the oracle --------------------


def edge_keys(edges):
    return [(e.src, e.snk, e.delay, e.kind) for e in edges]


def reference_prune(graph):
    """Pruning by its definition: drop the first redundant sync/ack edge
    (``is_redundant`` on a freshly computed table) until none is left."""
    pruned = editable(graph)
    pe = {v.name: v.pe for v in graph.vertices}
    while True:
        victim = next(
            (
                e
                for e in pruned.edges
                if e.kind in (EdgeKind.SYNC, EdgeKind.ACK)
                and pe[e.src] != pe[e.snk]
                and is_redundant(pruned, e)
            ),
            None,
        )
        if victim is None:
            return pruned
        pruned.remove_edge(victim)


def reference_candidates(graph):
    """Candidate sync edges in search order, by their definition."""
    vertices = sorted(graph.vertices, key=lambda x: x.name)
    direct = {(e.src, e.snk) for e in graph.edges}
    rho = graph.min_delay_paths()
    return [
        (u.name, v.name)
        for u in vertices
        for v in vertices
        if u.pe != v.pe
        and (u.name, v.name) not in direct
        and rho[v.name].get(u.name) != 0
    ]


def check_rounds_against_definition(graph):
    """Replay ``resynchronize`` at the object level, scoring every
    candidate of every round both ways; returns the final graph and how
    many candidates with a path ``v -> u`` did and did not raise the
    MCM."""
    current = reference_prune(graph)
    fast, _, _ = prune_sync_graph(graph)
    assert edge_keys(fast.edges) == edge_keys(current.edges)
    threshold = maximum_cycle_mean(graph) * (1 + 1e-6) + 1e-6
    verdicts = {True: 0, False: 0}
    for _ in range(32):
        if current.zero_delay_cycle():
            break
        snapshot = SyncGraphSnapshot(current.freeze(), threshold)
        assert snapshot.cost == sync_cost(current)
        pairs = list(snapshot.candidates())
        named = [(snapshot.names[u], snapshot.names[v]) for u, v in pairs]
        assert named == reference_candidates(current)
        rho = current.min_delay_paths()
        best, best_cost = None, sync_cost(current)
        for (u, v), (u_name, v_name) in zip(pairs, named):
            candidate = TimedEdge(u_name, v_name, delay=0, kind=EdgeKind.SYNC)
            trial = current.copy()
            trial.add_edge(candidate)
            raises = maximum_cycle_mean(trial.freeze()) > threshold
            assert snapshot.raises_mcm(u, v) == raises
            if u_name in rho[v_name]:
                verdicts[raises] += 1
            if raises:
                continue
            pruned = reference_prune(trial)
            removed, cost, trial_rho = snapshot.prune_trial(u, v)
            survivors = [
                e
                for i, e in enumerate(current.edges + [candidate])
                if i not in set(removed)
            ]
            assert edge_keys(survivors) == edge_keys(pruned.edges)
            # the repaired matrix that seeds the next round is exact
            assert (trial_rho == SyncGraphSnapshot(pruned.freeze()).rho).all()
            assert cost == sync_cost(pruned)
            if cost < best_cost:
                best_cost, best = cost, (u, v, removed, pruned)
        if best is None:
            break
        adopted, _, _ = snapshot.adopt(*best[:3])
        assert edge_keys(adopted.edges) == edge_keys(best[3].edges)
        current = best[3]
    return current, verdicts


def build_random_chain_graph(rng, trial):
    """Three PEs, each a chain of 1-3 tasks closed by a delay-1 wrap
    edge, joined by random cross-PE sync/ack/IPC edges (zero-delay only
    from a lower to a higher PE, so the graph stays live) — the shape
    of a real synchronization graph, where adding edges often pays."""
    graph = EditableGraph(f"chains{trial}")
    chains = []
    for pe in range(3):
        names = [f"p{pe}t{i}" for i in range(rng.randint(1, 3))]
        for name in names:
            graph.add_vertex(TimedVertex(name, rng.randint(1, 6), pe))
        for a, b in zip(names, names[1:]):
            graph.add_edge(TimedEdge(a, b, delay=0, kind=EdgeKind.INTRA))
        graph.add_edge(
            TimedEdge(names[-1], names[0], delay=1, kind=EdgeKind.INTRA)
        )
        chains.append(names)
    for _ in range(rng.randint(2, 9)):
        p, q = rng.sample(range(3), 2)
        graph.add_edge(
            TimedEdge(
                rng.choice(chains[p]),
                rng.choice(chains[q]),
                delay=0 if p < q else rng.randint(1, 2),
                kind=rng.choice([EdgeKind.SYNC, EdgeKind.ACK, EdgeKind.IPC]),
            )
        )
    return graph.freeze()


class TestSnapshotScoringDifferential:
    """Exhaustive small-scope check of the per-round snapshot scorer:
    every candidate of every round of 200 random graphs (3-10 tasks on
    3 PEs) gets the same MCM decision, surviving-edge set and cost as
    the object-level definition (``copy`` + ``add_edge`` +
    ``maximum_cycle_mean`` + the ``is_redundant`` fixpoint)."""

    def test_every_candidate_matches_the_definition(self):
        rng = random.Random(2008)
        verdicts = {True: 0, False: 0}
        for trial in range(200):
            graph = build_random_sync_graph(rng, trial)
            final, counts = check_rounds_against_definition(graph)
            verdicts[True] += counts[True]
            verdicts[False] += counts[False]
            result = resynchronize(graph)
            assert edge_keys(result.graph.edges) == edge_keys(final.edges)
            assert result.cost_after == sync_cost(final)
        # candidates that close a cycle are met on both sides of the
        # threshold: the MCM decision is exercised, not vacuous
        assert verdicts[True] > 0
        assert verdicts[False] > 0

    def test_multi_round_searches_match_the_definition(self):
        """Chain-shaped graphs adopt edges over several rounds."""
        rng = random.Random(2008)
        adopted = 0
        for trial in range(100):
            graph = build_random_chain_graph(rng, trial)
            final, _ = check_rounds_against_definition(graph)
            result = resynchronize(graph)
            assert edge_keys(result.graph.edges) == edge_keys(final.edges)
            assert result.cost_after == sync_cost(final)
            # every removable input edge missing from the result is
            # listed once, parallel copies included: removed plus kept
            # input edges are the removable input edges.  An added edge
            # never repeats a kept input edge (candidates skip joined
            # pairs), so the kept ones are the result's removable edges
            # less the added ones.
            removable = (EdgeKind.SYNC, EdgeKind.ACK)
            ids = result.removed_ids
            assert len(set(ids)) == len(ids)
            assert all(graph.edges[i].kind in removable for i in ids)
            kept = Counter(
                edge_keys(e for e in result.graph.edges if e.kind in removable)
            ) - Counter(edge_keys(result.added))
            assert Counter(edge_keys(result.removed)) + kept == Counter(
                edge_keys(e for e in graph.edges if e.kind in removable)
            )
            adopted += len(result.added)
        assert adopted >= 10


#: Floats near 2**60 lie 256 apart, so the midpoint above such a
#: threshold is an integer ratio: round-half-even takes it down to an
#: even threshold and up past an odd one.
_EVEN = float(1 << 60)
_ODD = math.nextafter(_EVEN, math.inf)


@pytest.mark.parametrize(
    "u_cycles, delay, threshold, raises",
    [
        # exactly 1/3 lies above the float 1/3 but rounds to it
        (1, 3, 1 / 3, False),
        (333334, 1000000, 1 / 3, True),
        ((1 << 60) + 128, 1, _EVEN, False),
        ((1 << 60) + 384, 1, _ODD, True),
    ],
)
def test_mcm_decision_reproduces_float_rounding(
    u_cycles, delay, threshold, raises
):
    """``raises_mcm`` equals ``maximum_cycle_mean(trial) > threshold``
    bit for bit, float rounding of the new cycle's ratio included: the
    candidate ``(u, v)`` closes the single cycle ``u_cycles / delay``."""
    graph = EditableGraph("loop")
    graph.add_vertex(TimedVertex("u", u_cycles, 0))
    graph.add_vertex(TimedVertex("v", 0, 1))
    graph.add_edge(TimedEdge("v", "u", delay=delay, kind=EdgeKind.SYNC))
    snapshot = SyncGraphSnapshot(graph.freeze(), threshold)
    u, v = snapshot.names.index("u"), snapshot.names.index("v")
    assert (u, v) in list(snapshot.candidates())
    trial = graph.copy()
    trial.add_edge(TimedEdge("u", "v", delay=0, kind=EdgeKind.SYNC))
    assert (maximum_cycle_mean(trial.freeze()) > threshold) == raises
    assert snapshot.raises_mcm(u, v) == raises


# -- the removal screen, the one MCM and the one matrix ----------------------


def compile_seed(seed, cache=None):
    case = build_case(generate_spec(seed))
    return SpiSystem.compile(case.graph, case.partition, cache=cache)


def graph_suite(name):
    """The graphs ``resynchronize`` is checked on: the random and chain
    suites, and the synchronization graphs (acks included) that the SPI
    compile of conformance seeds 1-200 hands to it."""
    if name == "conformance":
        return [compile_seed(seed).sync_graph for seed in range(1, 201)]
    rng = random.Random(2008)
    if name == "random":
        return [build_random_sync_graph(rng, trial) for trial in range(200)]
    return [build_random_chain_graph(rng, trial) for trial in range(100)]


SUITES = ["random", "chains", "conformance"]


def unscreened_search(graph, tight):
    """``resynchronize``'s rounds with every candidate pruned, checking
    each trial's removal count against the round's removal bound;
    ``tight[True]`` counts trials that meet the bound exactly.  Returns
    the final graph."""
    current, _, _ = SyncGraphSnapshot(graph).prune()
    if len(graph) > 24 or current.zero_delay_cycle():
        return current
    threshold = maximum_cycle_mean(graph) * (1 + 1e-6) + 1e-6
    for _ in range(32):
        snapshot = SyncGraphSnapshot(current, threshold)
        bound = snapshot.removal_bound()
        best, best_cost = None, snapshot.cost
        for u, v in snapshot.candidates():
            removed, cost, _ = snapshot.prune_trial(u, v)
            assert len(removed) <= bound[u, v]
            tight[len(removed) == bound[u, v]] += 1
            if cost < best_cost and not snapshot.raises_mcm(u, v):
                best, best_cost = (u, v, removed), cost
        if best is None:
            break
        current, _, _ = snapshot.adopt(*best)
    return current


class TestRemovalScreen:
    @pytest.mark.parametrize("suite", SUITES)
    def test_bound_holds_for_every_candidate_and_is_met(self, suite):
        """No trial removes more edges than its bound, some remove
        exactly as many (a bound one lower would be unsound), and the
        screened search ends where the unscreened one does."""
        tight = {True: 0, False: 0}
        for graph in graph_suite(suite):
            final = unscreened_search(graph, tight)
            result = resynchronize(graph)
            assert edge_keys(result.graph.edges) == edge_keys(final.edges)
        assert tight[True] > 0
        assert tight[False] > 0

    @pytest.mark.parametrize("suite", SUITES)
    def test_pruning_preserves_the_mcm(self, suite):
        """The MCM of the pruned graph serves as ``mcm_before``, and the
        result carries the exact MCM of its own graph."""
        for graph in graph_suite(suite):
            pruned, _, _ = prune_sync_graph(graph)
            before = maximum_cycle_mean_result(graph).value
            assert maximum_cycle_mean_result(pruned.freeze()).value == before
            result = resynchronize(graph)
            assert result.mcm_before == before
            assert result.mcm == maximum_cycle_mean_result(result.graph)
            assert result.mcm_after == result.mcm.value


#: conformance seeds whose resynchronization adopts an edge (25, 69)
#: and seeds where it only prunes
WITNESS_SEEDS = [1, 2, 3, 25, 69]


class TestOneAnalysisPerCase:
    @pytest.mark.parametrize("cached", [False, True])
    def test_spi_mcm_result_is_the_resync_graphs(self, cached):
        """The MCM handed over by resynchronization equals a fresh
        Howard run on the resynchronized graph, witness included — also
        when a cache replays the solution on a second compile."""
        cache = AnalysisCache() if cached else None
        adopted = 0
        for seed in WITNESS_SEEDS:
            for _ in range(2 if cached else 1):
                system = compile_seed(seed, cache)
                graph = system.resync_result.graph
                assert system.mcm_result() == maximum_cycle_mean_result(graph)
            adopted += bool(system.resync_result.added)
        assert adopted == 2
        if cached:
            assert cache.hits["resync"] == len(WITNESS_SEEDS)

    def count_calls(self, monkeypatch, name, *modules):
        """Count calls of function ``name`` through every module that
        binds it."""
        calls = []
        original = getattr(modules[0], name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)
        return calls

    def count_mcm_calls(self, monkeypatch):
        return self.count_calls(
            monkeypatch,
            "maximum_cycle_mean_result",
            repro.mapping.mcm,
            repro.mapping.resync,
            repro.spi.runtime,
        )

    def test_one_howard_run_per_compile_without_additions(
        self, monkeypatch, chain_graph, two_pe_partition
    ):
        calls = self.count_mcm_calls(monkeypatch)
        system = SpiSystem.compile(chain_graph, two_pe_partition)
        system.mcm_result()
        system.estimated_iteration_period_cycles()
        assert not system.resync_result.added
        assert len(calls) == 1

    def test_an_adopted_edge_costs_one_more_howard_run(self, monkeypatch):
        calls = self.count_mcm_calls(monkeypatch)
        system = compile_seed(25)
        system.mcm_result()
        assert len(system.resync_result.added) == 1
        assert len(calls) == 2

    def test_one_min_delay_matrix_per_resynchronize_call(self, monkeypatch):
        rng = random.Random(2008)
        graphs = [build_random_chain_graph(rng, trial) for trial in range(100)]
        # the graph whose search adopts the most edges, over several rounds
        graph = max(graphs, key=lambda g: len(resynchronize(g).added))
        calls = self.count_calls(
            monkeypatch,
            "min_delay_matrix",
            repro.mapping.graph_arrays,
            repro.mapping.resync,
        )
        result = resynchronize(graph)
        assert len(result.added) >= 2
        assert len(calls) == 1

    @pytest.mark.parametrize("cached", [False, True])
    def test_task_repetitions_reuses_the_lowering(self, monkeypatch, cached):
        cache = AnalysisCache() if cached else None
        graph = build_pipeline_graph()
        partition = Partition.manual(graph, {"A": 0, "B": 1, "C": 0})
        system = SpiSystem.compile(graph, partition, cache=cache)
        expected = repro.dataflow.sdf.repetitions_vector(system.insertion.graph)
        calls = self.count_calls(
            monkeypatch, "repetitions_vector", repro.dataflow.sdf
        )
        assert system.task_repetitions() == expected
        assert system.task_repetitions() is not system.schedule.repetitions
        assert calls == []
        if cached:
            assert cache.misses["repetitions"] == 1

