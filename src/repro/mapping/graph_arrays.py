"""Array-backed analysis engine for timed graphs (the §3/§4 fast path).

Every exact analysis the SPI methodology runs per graph — maximum cycle
mean, redundancy detection, resynchronization scoring — reads the
columns of a :class:`~repro.mapping.timed_graph.TimedGraph`:

* :func:`strongly_connected_components` — iterative Tarjan over the
  out-edge id lists;
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

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mapping.timed_graph import TimedGraph

__all__ = [
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


def strongly_connected_components(graph: TimedGraph) -> List[List[int]]:
    """Iterative Tarjan over the out-edge lists (vertex-id components)."""
    n = graph.n
    snk = graph.snk
    out = graph.out_edge_ids
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
    graph: TimedGraph,
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
    src, snk = graph.src, graph.snk
    #: ``(w, tau, u, x, edge id)`` per edge, grouped by source ``u`` in
    #: edge-id order (``w`` is the source's execution time)
    edges = [
        (graph.cycles[src[eid]], graph.delay[eid], local[src[eid]],
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

    eps = 1e-10 * (1.0 + float(sum(pol_w)) + float(sum(graph.cycles)))
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
    graph: TimedGraph,
) -> Tuple[float, int, int, List[int]]:
    """Exact maximum cycle ratio of a timed graph, with witness.

    Precondition: no zero-total-delay cycle (the caller returns
    ``math.inf`` for those before calling).  Returns
    ``(value, total_cycles, total_delay, edge ids of a critical cycle)``;
    acyclic graphs yield ``(0.0, 0, 0, [])``.  The value is computed as
    the float division of the witness cycle's exact integer sums, so it
    carries no search tolerance.
    """
    if graph.m == 0:
        return 0.0, 0, 0, []
    components = strongly_connected_components(graph)
    component_of = [0] * graph.n
    for cid, component in enumerate(components):
        for v in component:
            component_of[v] = cid
    buckets: Dict[int, List[int]] = {}
    for eid, (u, v) in enumerate(zip(graph.src, graph.snk)):
        if component_of[u] == component_of[v]:
            buckets.setdefault(component_of[u], []).append(eid)
    best: Optional[Tuple[int, int, List[int]]] = None
    for cid, edge_ids in sorted(buckets.items()):
        result = _howard_component(graph, components[cid], edge_ids)
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
