"""Property tests for resynchronization (paper §4.1).

The central soundness claim: an edge may only be removed when its
precedence constraint is *implied* by what remains.  Hypothesis
generates random synchronization graphs and checks that for every
removed edge ``e`` the pruned graph still contains a path from
``src(e)`` to ``snk(e)`` whose total delay is at most ``delay(e)`` —
reachability in the remaining sync graph covers the removed constraint
(eq. 3: ``start(snk, k) >= end(src, k - delay)`` stays enforced).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping.mcm import maximum_cycle_mean
from repro.mapping.resync import resynchronize
from repro.mapping.timed_graph import EdgeKind, TimedEdge, TimedVertex
from tests.conftest import EditableGraph, prune_sync_graph, sync_cost


@st.composite
def sync_graphs(draw):
    """A random multi-PE synchronization graph.

    A delay-1 ring keeps the graph live and strongly connected (finite
    MCM, no zero-delay cycle); extra random cross-PE sync edges create
    the redundancy the pruner hunts for.  Extra backward edges carry at
    least one delay so no zero-delay cycle can form.
    """
    n_tasks = draw(st.integers(3, 7))
    n_pes = draw(st.integers(2, 3))
    graph = EditableGraph("fuzz_sync")
    names = []
    for index in range(n_tasks):
        name = f"t{index}"
        names.append(name)
        graph.add_vertex(
            TimedVertex(
                name=name,
                cycles=draw(st.integers(1, 20)),
                pe=index % n_pes,
            )
        )
    for index in range(n_tasks):
        src, snk = names[index], names[(index + 1) % n_tasks]
        closing = index == n_tasks - 1
        cross = index % n_pes != (index + 1) % n_tasks % n_pes
        graph.add_edge(
            TimedEdge(
                src=src,
                snk=snk,
                delay=1 if closing else 0,
                kind=EdgeKind.SYNC if cross else EdgeKind.INTRA,
            )
        )
    n_extra = draw(st.integers(0, 6))
    for _ in range(n_extra):
        i = draw(st.integers(0, n_tasks - 1))
        j = draw(st.integers(0, n_tasks - 1))
        if i == j or i % n_pes == j % n_pes:
            continue
        min_delay = 0 if i < j else 1
        graph.add_edge(
            TimedEdge(
                src=names[i],
                snk=names[j],
                delay=draw(st.integers(min_delay, 3)),
                kind=EdgeKind.SYNC,
            )
        )
    return graph.freeze()


class TestPruneSoundness:
    @given(graph=sync_graphs())
    @settings(max_examples=60, deadline=None)
    def test_removed_edges_are_covered_by_remaining_paths(self, graph):
        pruned, removed, _ = prune_sync_graph(graph)
        table = pruned.min_delay_paths()
        for edge in removed:
            assert edge.kind in EdgeKind.SYNCHRONIZING
            remaining = table[edge.src].get(edge.snk)
            # the pruned graph must still enforce the removed constraint:
            # a path with no more accumulated delay (iteration skew)
            assert remaining is not None
            assert remaining <= edge.delay
        assert sync_cost(pruned) == sync_cost(graph) - len(removed)

    @given(graph=sync_graphs())
    @settings(max_examples=40, deadline=None)
    def test_prune_is_a_fixpoint(self, graph):
        pruned, _, _ = prune_sync_graph(graph)
        again, removed_again, _ = prune_sync_graph(pruned)
        assert removed_again == []
        assert sync_cost(again) == sync_cost(pruned)


class TestResynchronize:
    @given(graph=sync_graphs())
    @settings(max_examples=30, deadline=None)
    def test_never_raises_cost_and_preserves_mcm(self, graph):
        mcm_before = maximum_cycle_mean(graph)
        result = resynchronize(graph)
        assert result.cost_after <= result.cost_before
        assert result.mcm_before == mcm_before
        assert result.mcm_after <= mcm_before * (1 + 1e-6) + 1e-6
        # the result graph must stay deadlock-free
        assert not result.graph.zero_delay_cycle()
