"""Array-backed analysis engine for timed graphs (the §3/§4 fast path).

The compile represents ``G_ipc`` and the synchronization graphs as
columns, and every exact analysis the SPI methodology runs per graph —
maximum cycle mean, redundancy detection, resynchronization scoring —
reads those columns instead of walking a
:class:`~repro.mapping.timed_graph.TimedGraph` object graph:

* :class:`GraphArrays` — a timed graph as vertex columns (names,
  execution times, PEs, origin actors) and edge columns (source, sink,
  delay, kind, origin edge) in edge order.  The compile builds them
  straight from the schedule's task table; :meth:`GraphArrays.of`
  converts an object graph a caller holds, and :meth:`GraphArrays.graph`
  builds one where an API returns objects;
* :func:`strongly_connected_components` — iterative Tarjan over the
  out-edge lists;
* :func:`howard_mcm` — Howard's policy iteration for the maximum
  cycle-ratio problem ``max over cycles C of sum(t(src)) / sum(delay)``.
  It runs a handful of O(V+E) policy-evaluation sweeps and terminates
  with an **exact** answer: the value is recomputed from the
  critical cycle's integer execution-time and delay sums, so there is no
  search tolerance, and the critical cycle itself is returned as a
  witness;
* :func:`min_delay_matrix` — the all-pairs minimum path-delay table as
  an int64 matrix (``NO_PATH`` marks "no path"), with exact updates
  under single-edge mutation: :func:`insert_edge_min_delay` relaxes
  every pair once through a new edge, and
  :func:`remove_edge_min_delay` recomputes only the rows whose shortest
  path could have used a removed edge.  The dict-based
  :meth:`~repro.mapping.timed_graph.TimedGraph.min_delay_paths` is the
  reference these are checked against.

Precondition shared by the MCM entry points: the caller has already
ruled out zero-total-delay cycles (deadlock → the MCM is ``math.inf``
and there is no finite ratio to iterate towards).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.mapping.timed_graph import TimedEdge, TimedGraph, TimedVertex

__all__ = [
    "GraphArrays",
    "NO_PATH",
    "howard_mcm",
    "insert_edge_min_delay",
    "min_delay_matrix",
    "remove_edge_min_delay",
    "strongly_connected_components",
]

#: "No path" entry of a :func:`min_delay_matrix`.  Far above any real
#: path delay, and small enough that the sum of two entries stays exact
#: in int64.
NO_PATH = 1 << 40

#: One edge as a row: ``(src id, snk id, delay, kind, origin edge)``.
EdgeRow = Tuple[int, int, int, str, Optional[str]]


@dataclass(eq=False)
class GraphArrays:
    """A timed graph as columns.

    Vertex ``v`` is ``names[v]``, takes ``cycles[v]`` and runs on
    ``pe[v]`` as an invocation of ``origin[v]``; edge ``i`` runs from
    ``src[i]`` to ``snk[i]`` with ``delay[i]``, role ``kind[i]`` and
    ``origin_edge[i]``.  Every column is a Python list that nothing
    changes once built: :meth:`select` builds new edge columns over the
    same vertex columns, so the pre-ack graph, each compile's graph with
    its acks and the pruned graphs share what they have in common.
    """

    name: str
    names: List[str]
    cycles: List[int]
    pe: List[int]
    origin: List[Optional[str]]
    src: List[int]
    snk: List[int]
    delay: List[int]
    kind: List[str]
    origin_edge: List[Optional[str]]

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return len(self.src)

    @classmethod
    def of(cls, graph: TimedGraph) -> "GraphArrays":
        """The columns of an object graph, in its vertex and edge order."""
        vertices = graph.vertices
        index = {v.name: i for i, v in enumerate(vertices)}
        edges = graph.edges
        return cls(
            graph.name,
            [v.name for v in vertices],
            [v.cycles for v in vertices],
            [v.pe for v in vertices],
            [v.origin_actor for v in vertices],
            [index[e.src] for e in edges],
            [index[e.snk] for e in edges],
            [e.delay for e in edges],
            [e.kind for e in edges],
            [e.origin_edge for e in edges],
        )

    @cached_property
    def index(self) -> Dict[str, int]:
        """Vertex id by name."""
        return {name: v for v, name in enumerate(self.names)}

    def rows(self) -> List[EdgeRow]:
        """Every edge as an :data:`EdgeRow`, in edge order."""
        return list(
            zip(self.src, self.snk, self.delay, self.kind, self.origin_edge)
        )

    def select(
        self, keep: Iterable[int], rows: Sequence[EdgeRow] = ()
    ) -> "GraphArrays":
        """The graph of edges ``keep``, in the order given: ids below
        ``m`` are this graph's edges, ``m + k`` is ``rows[k]``."""
        every = self.rows() + list(rows)
        columns = tuple(zip(*[every[i] for i in keep])) or ((),) * 5
        return GraphArrays(
            self.name, self.names, self.cycles, self.pe, self.origin,
            *map(list, columns),
        )

    def with_edges(self, rows: Sequence[EdgeRow]) -> "GraphArrays":
        """This graph with ``rows`` appended after its edges."""
        return self.select(range(self.m + len(rows)), rows) if rows else self

    def edge(self, row: EdgeRow) -> TimedEdge:
        """An :data:`EdgeRow` over these vertices as a :class:`TimedEdge`."""
        src, snk, delay, kind, origin_edge = row
        return TimedEdge(
            self.names[src], self.names[snk], delay, kind, origin_edge
        )

    def graph(self, cls: Type[TimedGraph] = TimedGraph) -> TimedGraph:
        """The object graph of these columns (a ``cls`` instance)."""
        vertices = [
            TimedVertex(*vertex)
            for vertex in zip(self.names, self.cycles, self.pe, self.origin)
        ]
        edges = [self.edge(row) for row in self.rows()]
        return cls(self.name, vertices, edges)

    @cached_property
    def out_edges(self) -> List[List[int]]:
        """Out-edge ids of every vertex, in edge order."""
        out: List[List[int]] = [[] for _ in self.names]
        for eid, u in enumerate(self.src):
            out[u].append(eid)
        return out

    def zero_delay_cycle(self) -> List[int]:
        """Vertex ids of one zero-total-delay cycle, or [] when none
        exists (a depth-first search over the zero-delay edges, roots
        and successors in vertex and edge order)."""
        adjacency: List[List[int]] = [[] for _ in self.names]
        for u, v, d in zip(self.src, self.snk, self.delay):
            if d == 0:
                adjacency[u].append(v)
        state = [0] * len(adjacency)
        parent = [0] * len(adjacency)
        for root in range(len(adjacency)):
            if state[root]:
                continue
            stack = [(root, iter(adjacency[root]))]
            state[root] = 1
            while stack:
                node, successors = stack[-1]
                for nxt in successors:
                    mark = state[nxt]
                    if mark == 1:
                        # Back edge: unwind the cycle nxt -> ... -> node.
                        cycle = [node]
                        while cycle[-1] != nxt:
                            cycle.append(parent[cycle[-1]])
                        cycle.reverse()
                        return cycle
                    if mark == 0:
                        parent[nxt] = node
                        state[nxt] = 1
                        stack.append((nxt, iter(adjacency[nxt])))
                        break
                else:
                    state[node] = 2
                    stack.pop()
        return []


def strongly_connected_components(arrays: GraphArrays) -> List[List[int]]:
    """Iterative Tarjan over the out-edge lists (vertex-id components)."""
    n = arrays.n
    snk = arrays.snk
    out = arrays.out_edges
    ids = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    ptr = [0] * n
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0
    for root in range(n):
        if ids[root] != -1:
            continue
        work = [root]
        while work:
            u = work[-1]
            if ids[u] == -1:
                ids[u] = low[u] = counter
                counter += 1
                stack.append(u)
                on_stack[u] = True
            recursed = False
            edges = out[u]
            degree = len(edges)
            while ptr[u] < degree:
                x = snk[edges[ptr[u]]]
                ptr[u] += 1
                if ids[x] == -1:
                    work.append(x)
                    recursed = True
                    break
                if on_stack[x] and ids[x] < low[u]:
                    low[u] = ids[x]
            if recursed:
                continue
            work.pop()
            if low[u] == ids[u]:
                component = []
                while True:
                    x = stack.pop()
                    on_stack[x] = False
                    component.append(x)
                    if x == u:
                        break
                components.append(component)
            if work:
                parent = work[-1]
                if low[u] < low[parent]:
                    low[parent] = low[u]
    return components


def _evaluate_policy(
    n: int,
    pol_snk: List[int],
    pol_w: List[int],
    pol_tau: List[int],
    pol_eid: List[int],
) -> Tuple[List[float], List[float], List[Tuple[int, int, List[int]]]]:
    """Value determination for one policy (a functional graph).

    Returns per-vertex cycle ratios ``eta``, bias values ``v`` and the
    list of policy cycles as ``(w_sum, tau_sum, edge ids)`` with exact
    integer sums.  Every vertex's policy path leads to exactly one
    cycle; its ``eta`` is that cycle's ratio and its bias solves
    ``v[u] = w(u) - eta[u] * tau(u) + v[succ(u)]`` with one cycle vertex
    anchored at 0.
    """
    color = [0] * n  # 0 unvisited, 1 on current path, 2 finished
    eta = [0.0] * n
    bias = [0.0] * n
    cycles: List[Tuple[int, int, List[int]]] = []
    for start in range(n):
        if color[start]:
            continue
        path: List[int] = []
        u = start
        while color[u] == 0:
            color[u] = 1
            path.append(u)
            u = pol_snk[u]
        if color[u] == 1:
            # Found a new policy cycle: path[k:] where path[k] == u.
            k = path.index(u)
            cyc = path[k:]
            w_sum = sum(pol_w[node] for node in cyc)
            tau_sum = sum(pol_tau[node] for node in cyc)
            ratio = w_sum / tau_sum
            cycles.append((w_sum, tau_sum, [pol_eid[node] for node in cyc]))
            # Anchor the entry vertex and unroll the recurrence backwards
            # around the cycle (the full loop is consistent because
            # sum(w - ratio * tau) is 0 around it by construction).
            bias[cyc[0]] = 0.0
            for idx in range(len(cyc) - 1, 0, -1):
                node = cyc[idx]
                succ = pol_snk[node]
                bias[node] = (
                    pol_w[node] - ratio * pol_tau[node] + bias[succ]
                )
            for node in cyc:
                eta[node] = ratio
                color[node] = 2
        # Unwind the acyclic suffix (and, after a cycle, the prefix that
        # leads into it) in reverse: each vertex's successor is done.
        for node in reversed(path):
            if color[node] == 2:
                continue
            succ = pol_snk[node]
            eta[node] = eta[succ]
            bias[node] = pol_w[node] - eta[node] * pol_tau[node] + bias[succ]
            color[node] = 2
    return eta, bias, cycles


def _howard_component(
    arrays: GraphArrays,
    component: List[int],
    component_edges: List[int],
) -> Optional[Tuple[int, int, List[int]]]:
    """Maximum cycle ratio of one strongly connected component.

    Returns ``(w_sum, tau_sum, edge ids)`` of a critical cycle, or
    ``None`` when the component carries no cycle (single vertex without
    a self-loop).
    """
    local = {v: i for i, v in enumerate(component)}
    n = len(component)
    src, snk = arrays.src, arrays.snk
    #: ``(w, tau, u, x, edge id)`` per edge, grouped by source ``u`` in
    #: edge-id order (``w`` is the source's execution time)
    edges = [
        (arrays.cycles[src[eid]], arrays.delay[eid], local[src[eid]],
         local[snk[eid]], eid)
        for eid in component_edges
    ]
    edges.sort(key=lambda edge: edge[2])
    first: Dict[int, Tuple[int, int, int, int, int]] = {}
    for edge in edges:
        first.setdefault(edge[2], edge)
    if len(first) < n:
        # Only possible for a trivial SCC: no cycle through here.
        return None

    # Initial policy: the lowest-id out-edge of every vertex.
    pol_w = [first[u][0] for u in range(n)]
    pol_tau = [first[u][1] for u in range(n)]
    pol_snk = [first[u][3] for u in range(n)]
    pol_eid = [first[u][4] for u in range(n)]

    eps = 1e-10 * (1.0 + float(sum(pol_w)) + float(sum(arrays.cycles)))
    best: Optional[Tuple[int, int, List[int]]] = None
    # Policy iteration converges in far fewer rounds; the cap is a
    # backstop against float-noise oscillation, after which the current
    # (still valid, possibly sub-optimal) policy cycle is returned.
    for _ in range(4 * (n + len(edges)) + 16):
        eta, bias, cycles = _evaluate_policy(
            n, pol_snk, pol_w, pol_tau, pol_eid
        )
        best = max(cycles, key=lambda c: (c[0] / c[1], -len(c[2])))
        # Phase 1 — ratio improvement: point u at a successor whose
        # policy cycle has a strictly larger ratio; phase 2, only when
        # phase 1 finds none — bias improvement at the fixed ratio.
        # Either moves each improvable vertex to its best edge, ties to
        # the lowest edge id.
        chosen: Dict[int, Tuple[float, int]] = {}
        for w, tau, u, x, eid in edges:
            if eta[x] - eta[u] > eps:
                key = (eta[x], -eid)
                if u not in chosen or key > chosen[u]:
                    chosen[u] = key
                    pol_w[u], pol_tau[u], pol_snk[u], pol_eid[u] = w, tau, x, eid
        if not chosen:
            for w, tau, u, x, eid in edges:
                slack = w - eta[u] * tau + bias[x] - bias[u]
                if slack > eps and eta[x] >= eta[u] - eps:
                    key = (slack, -eid)
                    if u not in chosen or key > chosen[u]:
                        chosen[u] = key
                        pol_w[u], pol_tau[u], pol_snk[u], pol_eid[u] = (
                            w, tau, x, eid
                        )
        if not chosen:
            break
    assert best is not None
    return best


def howard_mcm(
    arrays: GraphArrays,
) -> Tuple[float, int, int, List[int]]:
    """Exact maximum cycle ratio of a timed graph, with witness.

    Precondition: no zero-total-delay cycle (the caller returns
    ``math.inf`` for those before building arrays).  Returns
    ``(value, total_cycles, total_delay, edge ids of a critical cycle)``;
    acyclic graphs yield ``(0.0, 0, 0, [])``.  The value is computed as
    the float division of the witness cycle's exact integer sums, so it
    carries no search tolerance.
    """
    if arrays.m == 0:
        return 0.0, 0, 0, []
    components = strongly_connected_components(arrays)
    component_of = [0] * arrays.n
    for cid, component in enumerate(components):
        for v in component:
            component_of[v] = cid
    buckets: Dict[int, List[int]] = {}
    for eid, (u, v) in enumerate(zip(arrays.src, arrays.snk)):
        if component_of[u] == component_of[v]:
            buckets.setdefault(component_of[u], []).append(eid)
    best: Optional[Tuple[int, int, List[int]]] = None
    for cid, edge_ids in sorted(buckets.items()):
        result = _howard_component(arrays, components[cid], edge_ids)
        if result is None:
            continue
        if best is None or result[0] * best[1] > best[0] * result[1]:
            best = result
    if best is None:
        return 0.0, 0, 0, []
    w_sum, tau_sum, edge_ids = best
    return w_sum / tau_sum, w_sum, tau_sum, edge_ids


def min_delay_matrix(
    n: int, src: Sequence[int], snk: Sequence[int], delay: Sequence[int]
) -> np.ndarray:
    """All-pairs minimum path delay (Floyd–Warshall on an int64 matrix).

    ``rho[i, j]`` is the least total delay over directed paths
    ``i -> j``, ``NO_PATH`` when there is none, and 0 on the diagonal
    (the empty path) — the matrix form of
    :meth:`~repro.mapping.timed_graph.TimedGraph.min_delay_paths`.
    """
    rho = np.full((n, n), NO_PATH, dtype=np.int64)
    np.minimum.at(
        rho,
        (np.asarray(src, dtype=np.int64), np.asarray(snk, dtype=np.int64)),
        np.asarray(delay, dtype=np.int64),
    )
    np.fill_diagonal(rho, 0)
    for k in range(n):
        np.minimum(rho, rho[:, k, None] + rho[None, k, :], out=rho)
    return rho


def insert_edge_min_delay(
    rho: np.ndarray, u: int, v: int, delay: int
) -> np.ndarray:
    """The min-delay matrix after inserting edge ``(u, v, delay)``.

    One relaxation of every pair through the new edge is exact: a
    minimum-delay walk never needs the edge twice, because delays are
    non-negative and cutting out the cycle between two uses never
    costs.  Entries with no path stay at ``NO_PATH``.
    """
    return np.minimum(rho, rho[:, u, None] + (rho[None, v, :] + delay))


def remove_edge_min_delay(
    rho: np.ndarray,
    u: int,
    v: int,
    delay: int,
    src: np.ndarray,
    snk: np.ndarray,
    edge_delay: np.ndarray,
    alive: np.ndarray,
) -> None:
    """Repair ``rho`` in place after removing edge ``(u, v, delay)``.

    ``src``/``snk``/``edge_delay`` list the edges and ``alive`` marks the
    ones still present (the removed edge already cleared).  Only rows
    ``i`` with ``rho[i, v] == rho[i, u] + delay`` can change: every other
    row reaches ``v`` by a strictly shorter path that avoids the edge,
    so each of its shortest paths has an equally short edge-free twin.
    An affected row is recomputed from its paths' shape: a walk inside
    the affected set ``R`` (the closure of the direct-edge matrix on
    ``R``), then either the end or one edge out of ``R`` followed by an
    unaffected — still exact — row.
    """
    to_u = rho[:, u]
    rows = np.flatnonzero((to_u < NO_PATH) & (rho[:, v] == to_u + delay))
    if rows.size == 0:
        return
    n = rho.shape[0]
    local = np.full(n, -1, dtype=np.int64)
    local[rows] = np.arange(rows.size)
    out = alive & (local[src] >= 0)
    direct = np.full((rows.size, n), NO_PATH, dtype=np.int64)
    np.minimum.at(direct, (local[src[out]], snk[out]), edge_delay[out])
    # Shortest walks that stay inside the affected set.
    inside = direct[:, rows]
    np.fill_diagonal(inside, 0)
    for k in range(rows.size):
        np.minimum(
            inside, inside[:, k, None] + inside[None, k, :], out=inside
        )
    # Best continuation from each affected vertex: stop there, or take
    # one edge to an unaffected vertex and follow its exact row.
    others = np.flatnonzero(local < 0)
    leave = (direct[:, others, None] + rho[None, others, :]).min(
        axis=1, initial=NO_PATH
    )
    leave[np.arange(rows.size), rows] = 0
    repaired = (inside[:, :, None] + leave[None, :, :]).min(axis=1)
    rho[rows] = np.minimum(repaired, NO_PATH)
