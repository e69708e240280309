"""Array-backed analysis engine for timed graphs (the §3/§4 fast path).

Every exact analysis the SPI methodology runs per graph — maximum cycle
mean, redundancy detection, resynchronization scoring — runs on this
shared engine instead of walking the
:class:`~repro.mapping.timed_graph.TimedGraph` object graph:

* :class:`GraphArrays` — a CSR-style numpy view of a timed graph
  (vertex execution times, edge endpoint/delay arrays, out-edges grouped
  by source vertex) built once per analysis;
* :func:`strongly_connected_components` — iterative Tarjan over the CSR
  arrays;
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

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mapping.timed_graph import TimedGraph

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


class GraphArrays:
    """CSR-style numpy adjacency view of a :class:`TimedGraph`.

    ``edge_src``/``edge_snk``/``edge_delay`` are parallel int64 arrays in
    the graph's edge order (so edge ids are positions), ``cycles`` holds
    per-vertex execution times, and ``csr_edges[csr_start[u]:
    csr_start[u+1]]`` lists the out-edge ids of vertex ``u`` in edge-id
    order — the deterministic iteration order every algorithm here uses.
    """

    def __init__(self, graph: TimedGraph) -> None:
        vertices = graph.vertices
        index = {v.name: i for i, v in enumerate(vertices)}
        edges = graph.edges
        self.names = [v.name for v in vertices]
        self.n = n = len(vertices)
        self.cycles = np.fromiter(
            (v.cycles for v in vertices), dtype=np.int64, count=n
        )
        self.m = m = len(edges)
        self.edge_src = np.fromiter(
            (index[e.src] for e in edges), dtype=np.int64, count=m
        )
        self.edge_snk = np.fromiter(
            (index[e.snk] for e in edges), dtype=np.int64, count=m
        )
        self.edge_delay = np.fromiter(
            (e.delay for e in edges), dtype=np.int64, count=m
        )
        # Group out-edges by source; stable sort keeps edge-id order
        # within each source bucket.
        self.csr_edges = np.argsort(self.edge_src, kind="stable")
        counts = np.bincount(self.edge_src, minlength=n)
        self.csr_start = np.concatenate(
            ([0], np.cumsum(counts))
        ).astype(np.int64)


def strongly_connected_components(arrays: GraphArrays) -> List[List[int]]:
    """Iterative Tarjan over the CSR arrays (vertex-id components)."""
    n = arrays.n
    snk = arrays.edge_snk
    csr_start = arrays.csr_start
    csr_edges = arrays.csr_edges
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
            degree = int(csr_start[u + 1] - csr_start[u])
            while ptr[u] < degree:
                eid = int(csr_edges[csr_start[u] + ptr[u]])
                ptr[u] += 1
                x = int(snk[eid])
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
    out: List[List[Tuple[int, int, int, int]]] = [[] for _ in range(n)]
    for eid in sorted(component_edges):
        src = int(arrays.edge_src[eid])
        out[local[src]].append(
            (
                int(arrays.cycles[src]),
                int(arrays.edge_delay[eid]),
                local[int(arrays.edge_snk[eid])],
                eid,
            )
        )
    if any(not edges for edges in out):
        # Only possible for a trivial SCC: no cycle through here.
        return None

    # Edge arrays of the component, for the vectorized improvement scan.
    ce_w: List[int] = []
    ce_tau: List[int] = []
    ce_src: List[int] = []
    ce_snk: List[int] = []
    ce_eid: List[int] = []
    for u, edges in enumerate(out):
        for w, tau, x, eid in edges:
            ce_w.append(w)
            ce_tau.append(tau)
            ce_src.append(u)
            ce_snk.append(x)
            ce_eid.append(eid)
    ce_w_arr = np.array(ce_w, dtype=np.float64)
    ce_tau_arr = np.array(ce_tau, dtype=np.float64)
    ce_src_arr = np.array(ce_src, dtype=np.int64)
    ce_snk_arr = np.array(ce_snk, dtype=np.int64)

    # Initial policy: the lowest-id out-edge of every vertex.
    pol_w = [out[u][0][0] for u in range(n)]
    pol_tau = [out[u][0][1] for u in range(n)]
    pol_snk = [out[u][0][2] for u in range(n)]
    pol_eid = [out[u][0][3] for u in range(n)]

    eps = 1e-10 * (1.0 + float(sum(pol_w)) + float(arrays.cycles.sum()))
    best: Optional[Tuple[int, int, List[int]]] = None
    # Policy iteration converges in far fewer rounds; the cap is a
    # backstop against float-noise oscillation, after which the current
    # (still valid, possibly sub-optimal) policy cycle is returned.
    for _ in range(4 * (n + len(ce_w)) + 16):
        eta, bias, cycles = _evaluate_policy(
            n, pol_snk, pol_w, pol_tau, pol_eid
        )
        best = max(cycles, key=lambda c: (c[0] / c[1], -len(c[2])))
        eta_arr = np.array(eta)
        bias_arr = np.array(bias)

        improved = False
        # Phase 1 — ratio improvement: point u at a successor whose
        # policy cycle has a strictly larger ratio.
        gain = eta_arr[ce_snk_arr] - eta_arr[ce_src_arr]
        candidates = np.nonzero(gain > eps)[0]
        if candidates.size:
            chosen: Dict[int, Tuple[float, int]] = {}
            for k in candidates.tolist():
                u = ce_src[k]
                key = (eta[ce_snk[k]], -ce_eid[k])
                if u not in chosen or key > chosen[u]:
                    chosen[u] = key
                    pol_w[u] = ce_w[k]
                    pol_tau[u] = ce_tau[k]
                    pol_snk[u] = ce_snk[k]
                    pol_eid[u] = ce_eid[k]
            improved = True
        else:
            # Phase 2 — bias improvement at the fixed ratio.
            slack = (
                ce_w_arr
                - eta_arr[ce_src_arr] * ce_tau_arr
                + bias_arr[ce_snk_arr]
                - bias_arr[ce_src_arr]
            )
            same_ratio = eta_arr[ce_snk_arr] >= eta_arr[ce_src_arr] - eps
            candidates = np.nonzero((slack > eps) & same_ratio)[0]
            if candidates.size:
                chosen2: Dict[int, Tuple[float, int]] = {}
                for k in candidates.tolist():
                    u = ce_src[k]
                    key = (float(slack[k]), -ce_eid[k])
                    if u not in chosen2 or key > chosen2[u]:
                        chosen2[u] = key
                        pol_w[u] = ce_w[k]
                        pol_tau[u] = ce_tau[k]
                        pol_snk[u] = ce_snk[k]
                        pol_eid[u] = ce_eid[k]
                improved = True
        if not improved:
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
    for eid in range(arrays.m):
        src = int(arrays.edge_src[eid])
        if component_of[src] == component_of[int(arrays.edge_snk[eid])]:
            buckets.setdefault(component_of[src], []).append(eid)
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
    n: int, src: np.ndarray, snk: np.ndarray, delay: np.ndarray
) -> np.ndarray:
    """All-pairs minimum path delay (Floyd–Warshall on an int64 matrix).

    ``rho[i, j]`` is the least total delay over directed paths
    ``i -> j``, ``NO_PATH`` when there is none, and 0 on the diagonal
    (the empty path) — the matrix form of
    :meth:`~repro.mapping.timed_graph.TimedGraph.min_delay_paths`.
    """
    rho = np.full((n, n), NO_PATH, dtype=np.int64)
    np.minimum.at(rho, (src, snk), delay)
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
