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

from dataclasses import replace

from repro.mapping.timed_graph import TimedGraph

__all__ = ["derive_sync_graph"]


def derive_sync_graph(ipc_graph: TimedGraph, name: str = "") -> TimedGraph:
    """Initial synchronization graph: ``G_ipc`` under its sync name
    (paper §4.1), sharing its columns."""
    return replace(
        ipc_graph, name=name or ipc_graph.name.replace("_ipc", "") + "_sync"
    )
