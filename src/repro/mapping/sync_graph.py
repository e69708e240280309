"""Synchronization graphs and redundant-synchronization detection (paper §4).

The synchronization graph ``G_s`` is derived from the IPC graph: it keeps
only the *synchronization* semantics of every edge.  Initially ``G_s`` is
identical to ``G_ipc``; resynchronization then modifies it (adds sync
edges, removes redundant ones) without ever touching the *data*
communication, which stays on the IPC edges of ``G_ipc``.

**Redundancy criterion** (Sriram & Bhattacharyya, used by the paper): a
synchronization edge ``e = (x, y, d)`` is redundant iff the sequencing
requirement it encodes is implied by the rest of the graph — i.e. iff
there is a directed path ``x -> y``, not using ``e`` itself, whose total
delay is at most ``d``.  Operationally: some other out-edge ``e'`` of
``x`` satisfies ``delay(e') + rho(snk(e'), y) <= d`` where ``rho`` is the
all-pairs minimum path delay.  :mod:`repro.mapping.resync` evaluates it
for every removable edge at once on the min-delay matrix.
"""

from __future__ import annotations

from repro.mapping.timed_graph import TimedGraph

__all__ = [
    "SynchronizationGraph",
    "derive_sync_graph",
]


class SynchronizationGraph(TimedGraph):
    """A :class:`TimedGraph` specialised for synchronization analysis.

    Adds the metric the resynchronization benchmarks report: the number
    of cross-PE synchronization operations per iteration.
    """

    def sync_cost(self) -> int:
        """Cross-PE synchronization operations per graph iteration."""
        return len(self.synchronization_edges())


def derive_sync_graph(ipc_graph: TimedGraph, name: str = "") -> SynchronizationGraph:
    """Initial synchronization graph: a copy of ``G_ipc`` (paper §4.1),
    sharing its vertices and edges."""
    return SynchronizationGraph.sharing(
        name or ipc_graph.name.replace("_ipc", "") + "_sync",
        ipc_graph.vertices,
        ipc_graph.edges,
    )
