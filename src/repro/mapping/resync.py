"""Resynchronization (paper §4.1).

Resynchronization reduces the run-time synchronization cost of a
self-timed implementation in two complementary moves:

1. **Redundant-synchronization removal** — drop every synchronization
   edge whose sequencing requirement is already ensured by the remaining
   edges (the classic shared-memory technique, which the paper extends
   to distributed-memory / message-passing systems: a removed edge is a
   synchronization *message* that never needs to be sent);
2. **Resynchronization proper** — *add* new synchronization edges chosen
   so that the number of edges that thereby become redundant exceeds the
   number added, reducing the net cost.

Both moves must preserve the synchronization semantics: every removed
constraint stays implied by the surviving graph (guaranteed by the
redundancy criterion), and no added edge may deadlock the system or
degrade its throughput (MCM).

The paper additionally applies the technique to the **acknowledgment**
edges generated by the UBS protocol: "resynchronization for SPI based
implementation involves removal of redundant acknowledgement edges for
SPI actors".  Ack edges are ordinary sync edges here (kind ``ack``), so
the same machinery covers them.

Both moves run on one array routine.  A :class:`SyncGraphSnapshot`
holds a graph's vertices and edges as index arrays plus its int64
min-delay matrix; the pruning fixpoint replays on a boolean alive-mask
over the snapshot's edge order, evaluating the redundancy rule (an edge
``(x, y, d)`` is redundant while another edge leaving ``x`` starts a
path to ``y`` of delay at most ``d``) for every removable edge at once
and repairing only the matrix rows a removal can change.  The addition
search builds one snapshot per round and scores every candidate edge on
it — an exact removal bound screens out candidates that cannot win, the
trial min-delay matrix is one relaxation through the candidate, the
trial MCM check one lookup in an exact max-plus longest-path table — so
no graph is copied until a candidate is adopted.  One pass computes one
min-delay matrix and, unless it adopts an edge, one MCM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.mapping.graph_arrays import (
    insert_edge_min_delay,
    min_delay_matrix,
    remove_edge_min_delay,
)
from repro.mapping.mcm import McmResult, maximum_cycle_mean_result
from repro.mapping.sync_graph import SynchronizationGraph
from repro.mapping.timed_graph import EdgeKind, TimedEdge


__all__ = [
    "ResynchronizationResult",
    "SyncGraphSnapshot",
    "resynchronize",
]

#: Edge kinds that resynchronization is allowed to delete.  Same-PE
#: sequencing (``intra``) is enforced by program order, not messages, so
#: it is never touched; IPC edges carry data, so their *synchronization*
#: role can be made redundant but the data transfer itself stays — we
#: therefore never delete IPC edges either, we only count sync/ack.
_REMOVABLE_KINDS = (EdgeKind.SYNC, EdgeKind.ACK)

#: Greedy addition rounds per pass.
_MAX_ROUNDS = 32
#: Relative and absolute slack on the MCM an added edge may not exceed.
_MCM_TOLERANCE = 1e-6
#: Graphs with more tasks get the pruning-only treatment: the addition
#: search is quadratic in tasks with a pruning fixpoint per candidate.
_MAX_ADDITION_VERTICES = 24


@dataclass
class ResynchronizationResult:
    """Outcome of a resynchronization pass.

    ``mcm`` is the :class:`McmResult` of ``graph``, witness included,
    when the pass computed it; a replayed solution leaves it ``None``.
    """

    graph: SynchronizationGraph
    removed: List[TimedEdge] = field(default_factory=list)
    added: List[TimedEdge] = field(default_factory=list)
    cost_before: int = 0
    cost_after: int = 0
    mcm_before: float = 0.0
    mcm_after: float = 0.0
    mcm: Optional[McmResult] = None


def _vouching_pairs(
    src: np.ndarray, removable: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``(edge, first hop)`` pair the redundancy rule inspects.

    For each removable edge ``r`` (in edge order) the pairs list every
    other edge ``e != r`` leaving the same vertex, so the pair arrays
    come out grouped by ``r`` in ascending edge order.
    """
    edge_ids = np.flatnonzero(removable)
    same_source = src[edge_ids, None] == src[None, :]
    same_source[np.arange(edge_ids.size), edge_ids] = False
    rows, hops = np.nonzero(same_source)
    return edge_ids[rows], hops


def _prune(
    rho: np.ndarray,
    alive: np.ndarray,
    src: np.ndarray,
    snk: np.ndarray,
    delay: np.ndarray,
    pair_edge: np.ndarray,
    pair_hop: np.ndarray,
) -> List[int]:
    """Run the redundant-edge removal fixpoint on arrays, in place.

    Edge ``r = (x, y, d)`` is redundant while some other alive edge
    ``e`` leaves ``x`` with ``delay(e) + rho[snk(e), y] <= d``.  Each
    step removes the first redundant edge in edge order and repairs
    ``rho`` before re-evaluating, so mutually vouching edges never both
    go.  Returns the removed edge ids in removal order; ``rho`` and
    ``alive`` are left describing the pruned graph.
    """
    removed: List[int] = []
    if pair_edge.size == 0:
        return removed
    n = rho.shape[0]
    flat = snk[pair_hop] * n + snk[pair_edge]
    slack = delay[pair_edge] - delay[pair_hop]
    live = alive[pair_edge] & alive[pair_hop]
    while True:
        redundant = live & (rho.take(flat) <= slack)
        first = int(redundant.argmax())
        if not redundant[first]:
            return removed
        victim = int(pair_edge[first])
        alive[victim] = False
        live &= (pair_edge != victim) & (pair_hop != victim)
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
        removed.append(victim)


class SyncGraphSnapshot:
    """Index/array view of a synchronization graph for resynchronization.

    Vertices and edges keep the graph's order, so a vertex id is its
    position in ``graph.vertices`` and an edge id its position in
    ``graph.edges``; ``rho`` is the graph's min-delay matrix, computed
    here unless the caller already holds it.  A *trial* appends one
    candidate edge ``(u, v)`` (zero-delay ``sync``) as edge id ``m``,
    exactly where ``add_edge`` would put it.

    ``mcm_threshold`` arms the throughput check of :meth:`raises_mcm`;
    its table is built on the first check, so a round whose every
    candidate fails the removal screen builds none.
    """

    def __init__(
        self,
        graph: SynchronizationGraph,
        mcm_threshold: Optional[float] = None,
        rho: Optional[np.ndarray] = None,
    ) -> None:
        self.graph = graph
        vertices = graph.vertices
        self.names = [v.name for v in vertices]
        index = {name: i for i, name in enumerate(self.names)}
        self.n = n = len(vertices)
        self.cycles = [int(v.cycles) for v in vertices]
        self.pe = [v.pe for v in vertices]
        self.edges = graph.edges
        self.m = m = len(self.edges)
        # Trial arrays: the graph's edges plus the candidate slot at m
        # (a cross-PE sync edge, so removable).
        self._src = np.array(
            [index[e.src] for e in self.edges] + [0], dtype=np.int64
        )
        self._snk = np.array(
            [index[e.snk] for e in self.edges] + [0], dtype=np.int64
        )
        self._delay = np.array(
            [e.delay for e in self.edges] + [0], dtype=np.int64
        )
        pe = np.array(self.pe, dtype=np.int64)
        cross = np.append(pe[self._src[:m]] != pe[self._snk[:m]], True)
        kinds = [e.kind for e in self.edges] + [EdgeKind.SYNC]
        self._removable = cross & np.array(
            [k in _REMOVABLE_KINDS for k in kinds], dtype=bool
        )
        self.src = self._src[:m]
        self.snk = self._snk[:m]
        self.delay = self._delay[:m]
        self.removable = self._removable[:m]
        #: cross-PE synchronizing edges (every removable edge is one)
        self.cost = sum(
            1
            for k, is_cross in zip(kinds[:m], cross[:m])
            if is_cross and k in EdgeKind.SYNCHRONIZING
        )
        if rho is None:
            rho = min_delay_matrix(n, self.src, self.snk, self.delay)
        self.rho = rho
        self._mcm_threshold = mcm_threshold
        self._longest: Optional[np.ndarray] = None
        self._trial_pairs: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def _build_mcm_table(self) -> None:
        """The exact max-plus table behind :meth:`raises_mcm`.

        The trial MCM exceeds the threshold ``t`` iff ``float(C / D) >
        t`` for a new cycle of execution-time sum ``C`` and delay sum
        ``D``.  That holds iff ``C / D`` lies above the rational
        midpoint ``P / Q`` between ``t`` and the next float up, or sits
        on it and round-half-even rounds up.  Weights ``w(e) =
        cycles(src(e)) * Q - P * delay(e)`` turn this into "a cycle
        weighs more than 0" (or at least 0 at a rounding-up tie).  No
        cycle of the current graph weighs more than 0 — the original
        graph's MCM lies below the threshold and every adopted edge
        passed this test — so the longest-path table ``L`` over Python
        ints (``-inf`` where there is no path) is well defined.  The
        heaviest closed walk through the candidate ``(u, v)`` weighs
        ``cycles(u) * Q + L[v, u]``, and the cycle through the candidate
        that it contains weighs at least as much.
        """
        threshold = self._mcm_threshold
        above = math.nextafter(threshold, math.inf)
        midpoint = (Fraction(threshold) + Fraction(above)) / 2
        p, q = midpoint.numerator, midpoint.denominator
        self._q = q
        self._raise_at = 0 if float(midpoint) > threshold else 1
        table = np.full((self.n, self.n), -math.inf, dtype=object)
        for s, k, d in zip(
            self.src.tolist(), self.snk.tolist(), self.delay.tolist()
        ):
            table[s, k] = max(table[s, k], self.cycles[s] * q - p * d)
        for j in range(self.n):
            np.maximum(table, table[:, j, None] + table[None, j, :], out=table)
        self._longest = table

    def prune(
        self,
    ) -> Tuple[SynchronizationGraph, List[TimedEdge], np.ndarray]:
        """The graph after the removal fixpoint, the removed edges, and
        the pruned graph's min-delay matrix."""
        alive = np.ones(self.m, dtype=bool)
        pair_edge, pair_hop = _vouching_pairs(self.src, self.removable)
        rho = self.rho.copy()
        removed = _prune(
            rho,
            alive,
            self.src,
            self.snk,
            self.delay,
            pair_edge,
            pair_hop,
        )
        kept = [e for e, keep in zip(self.edges, alive) if keep]
        return (
            self._rebuild(kept),
            [self.edges[i] for i in removed],
            rho,
        )

    def candidates(self) -> Iterator[Tuple[int, int]]:
        """Candidate sync edges ``(u, v)`` in search order.

        Pairs of tasks on different PEs in name order, skipping pairs
        already joined by an edge and pairs with a zero-delay path
        ``v -> u`` (the candidate would close a zero-delay cycle).
        """
        order = sorted(range(self.n), key=self.names.__getitem__)
        direct = set(zip(self.src.tolist(), self.snk.tolist()))
        rho = self.rho
        for u in order:
            for v in order:
                if u == v or self.pe[u] == self.pe[v]:
                    continue
                if (u, v) in direct or rho[v, u] == 0:
                    continue
                yield u, v

    def removal_bound(self) -> np.ndarray:
        """``bound[u, v]``: at most how many edges pruning the trial
        ``+ (u, v)`` removes.

        ``bound[u, v] = 1 + #{removable r = (x, y, d) : rho[x, u] +
        rho[v, y] <= d}``.  It holds when the graph is a pruning
        fixpoint without a zero-delay cycle, as every graph the addition
        search scores is.  Then no edge is redundant yet, so ``r``
        becomes redundant only through a path ``x ~> u -> v ~> y`` of
        delay at most ``d``.  Removing a redundant edge leaves the
        min-delay matrix unchanged (its replacement path cannot use it
        without a zero-delay cycle), so the trial's fixpoint removes a
        subset of those edges, plus possibly the candidate itself (the
        ``1 +``).
        """
        x = self.src[self.removable]
        y = self.snk[self.removable]
        d = self.delay[self.removable]
        rho = self.rho
        # reach[r, u, v] = rho[x_r, u] + rho[v, y_r] <= d_r
        reach = rho[x, :, None] + rho[:, y].T[:, None, :] <= d[:, None, None]
        return 1 + reach.sum(axis=0)

    def raises_mcm(self, u: int, v: int) -> bool:
        """Whether the trial ``+ (u, v)`` has an MCM above the threshold.

        Only cycles through the candidate are new; the heaviest of them
        weighs ``cycles(u) * Q + L[v, u]`` (see
        :meth:`_build_mcm_table`), which is ``-inf`` with no path
        ``v -> u``.  The verdict equals ``maximum_cycle_mean(trial) >
        threshold``.
        """
        if self._longest is None:
            self._build_mcm_table()
        return self.cycles[u] * self._q + self._longest[v, u] >= self._raise_at

    def prune_trial(
        self, u: int, v: int
    ) -> Tuple[List[int], int, np.ndarray]:
        """Prune the trial ``+ (u, v)``: removed edge ids, the cost, and
        the pruned trial's min-delay matrix.

        Edge id ``m`` is the candidate.  The cost counts the surviving
        cross-PE edges of a synchronizing kind; every removable edge is
        one, and so is the candidate.
        """
        self._src[self.m] = u
        self._snk[self.m] = v
        pairs = self._trial_pairs.get(u)
        if pairs is None:
            pairs = _vouching_pairs(self._src, self._removable)
            self._trial_pairs[u] = pairs
        rho = insert_edge_min_delay(self.rho, u, v, 0)
        removed = _prune(
            rho,
            np.ones(self.m + 1, dtype=bool),
            self._src,
            self._snk,
            self._delay,
            *pairs,
        )
        return removed, self.cost + 1 - len(removed), rho

    def adopt(
        self, u: int, v: int, removed: List[int]
    ) -> Tuple[SynchronizationGraph, TimedEdge]:
        """The pruned trial ``+ (u, v)`` as a graph, and the added edge."""
        candidate = TimedEdge(
            src=self.names[u], snk=self.names[v], delay=0, kind=EdgeKind.SYNC
        )
        gone = set(removed)
        kept = [
            e
            for i, e in enumerate(self.edges + (candidate,))
            if i not in gone
        ]
        return self._rebuild(kept), candidate

    def _rebuild(self, edges: List[TimedEdge]) -> SynchronizationGraph:
        graph = self.graph
        return type(graph).sharing(graph.name, graph.vertices, edges)


def resynchronize(
    graph: SynchronizationGraph, rho: Optional[np.ndarray] = None
) -> ResynchronizationResult:
    """Full resynchronization: prune, then greedily add beneficial edges.

    Each round evaluates every candidate new zero-delay sync edge
    ``(u, v)`` between tasks on different PEs (skipping pairs already
    directly connected), rejecting candidates that would deadlock the
    graph (zero-delay cycle) or raise the maximum cycle mean above the
    original one (up to a relative and absolute slack of 1e-6).  The
    candidate that minimises the post-pruning synchronization cost is
    adopted if it strictly improves on the current cost; otherwise the
    pass terminates, at the latest after 32 rounds.  A graph that
    already has a zero-delay cycle gets no additions: every candidate
    would inherit the deadlock, and since no candidate closes a new
    zero-delay cycle, only the input can have one.

    The addition search is quadratic in tasks with a pruning fixpoint
    per candidate; graphs above 24 tasks get the (always-sound)
    pruning-only treatment, which is where almost all of the benefit
    lives anyway.

    Each round builds one :class:`SyncGraphSnapshot` of the current
    graph and scores every candidate on it without copying a graph:

    * a candidate deadlocks iff the snapshot's min-delay matrix has
      ``rho[v, u] == 0``;
    * a candidate wins only if its trial removes more than
      ``current_cost + 1 - best_cost`` edges, so one whose exact
      :meth:`~SyncGraphSnapshot.removal_bound` is no larger is skipped,
      and the round ends once no bound is larger;
    * its MCM check is one lookup in the exact max-plus longest-path
      table;
    * its pruning replays the removal fixpoint on an alive-mask with the
      candidate appended last.

    The winner's repaired min-delay matrix seeds the next round's
    snapshot, so a pass computes one matrix.

    Pruning preserves the MCM value: every cycle through a removed edge
    reroutes into a closed walk with at least the same execution time
    and at most the same delay.  Howard's value is the correctly rounded
    quotient of a critical cycle's integer sums, so equal ratios give
    equal floats.  One MCM of the pruned graph therefore serves as
    ``mcm_before`` and, unless an edge is adopted, as
    ``mcm_after`` and the returned :attr:`ResynchronizationResult.mcm`.

    ``rho`` may pass the min-delay matrix of ``graph`` (vertex order),
    when the caller already holds it; it is only read.
    """
    base_pruned, removed, rho = SyncGraphSnapshot(graph, rho=rho).prune()
    mcm = maximum_cycle_mean_result(base_pruned)
    mcm_before = mcm.value
    cost_before = graph.sync_cost()
    current = base_pruned
    current_cost = current.sync_cost()
    added: List[TimedEdge] = []

    mcm_threshold = mcm_before * (1 + _MCM_TOLERANCE) + _MCM_TOLERANCE
    addition_rounds = _MAX_ROUNDS if len(graph) <= _MAX_ADDITION_VERTICES else 0
    if mcm.is_deadlock:
        # An infinite MCM is a zero-delay cycle.
        addition_rounds = 0
    for _ in range(addition_rounds):
        snapshot = SyncGraphSnapshot(current, mcm_threshold, rho)
        bound = snapshot.removal_bound()
        top = int(bound.max(initial=0))
        best: Optional[Tuple[int, int, List[int], np.ndarray]] = None
        best_cost = current_cost
        for u, v in snapshot.candidates():
            # A winner's trial removes more than ``need`` edges.
            need = current_cost + 1 - best_cost
            if top <= need:
                break
            if bound[u, v] <= need or snapshot.raises_mcm(u, v):
                continue
            trial_removed, cost, trial_rho = snapshot.prune_trial(u, v)
            if cost < best_cost:
                best_cost = cost
                best = (u, v, trial_removed, trial_rho)
        if best is None:
            break
        u, v, trial_removed, rho = best
        current, best_edge = snapshot.adopt(u, v, trial_removed)
        current_cost = best_cost
        added.append(best_edge)
    if added:
        mcm = maximum_cycle_mean_result(current)

    # By identity: parallel copies of an edge compare equal.
    listed = {e.uid for e in removed} | {e.uid for e in current.edges}
    removed_total = removed + [
        e
        for e in graph.edges
        if e.kind in _REMOVABLE_KINDS and e.uid not in listed
    ]
    return ResynchronizationResult(
        graph=current,
        removed=removed_total,
        added=added,
        cost_before=cost_before,
        cost_after=current_cost,
        mcm_before=mcm_before,
        mcm_after=mcm.value,
        mcm=mcm,
    )
