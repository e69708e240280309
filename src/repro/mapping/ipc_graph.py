"""IPC graph construction (paper §4.1).

Given an application graph and its multiprocessor (self-timed) schedule,
the IPC graph ``G_ipc`` is derived by

* instantiating a vertex for each task,
* connecting an edge from each task to the task that succeeds it on the
  same processor (program order, zero delay),
* adding a unit-delay edge from the *last* task on each processor back
  to the *first* task on the same processor (the processor loops), and
* instantiating an IPC edge ``x -> y`` for each application edge whose
  endpoints execute on different processors (carrying the application
  edge's delay and payload size).

Every edge of ``G_ipc`` represents the eq. 3 constraint
``start(snk, k) >= end(src, k - delay)``; IPC edges additionally carry
data.
"""

from __future__ import annotations

from repro.dataflow.graph import GraphError
from repro.mapping.selftimed import SelfTimedSchedule
from repro.mapping.timed_graph import EdgeKind, TimedGraph

__all__ = ["build_ipc_graph"]


def build_ipc_graph(schedule: SelfTimedSchedule, name: str = "") -> TimedGraph:
    """Construct ``G_ipc`` from a self-timed schedule.

    The task table of the schedule (the application graph itself, or
    its HSDF expansion for multirate applications) provides the tasks,
    in task-id order, and the data edges; the per-PE orders provide the
    sequencing edges.  Vertex ``t`` of the result is task ``t``.
    """
    table = schedule.task_table
    index = table.index
    suffix = "_ipc" if schedule.homogeneous else "_hsdf_ipc"
    names = [task[0] for task in table.tasks]
    pe = [schedule.task_pe[task] for task in names]
    src, snk, delay, kind, origin_edge = [], [], [], [], []
    for order in schedule.orders.values():
        if not order:
            continue
        ids = [index[task] for task in order]
        # Program order, then the processor wrap-around: iteration k+1's
        # first task waits for iteration k's last task.
        src += ids
        snk += ids[1:] + ids[:1]
        delay += [0] * (len(ids) - 1) + [1]
        kind += [EdgeKind.INTRA] * len(ids)
        origin_edge += [None] * len(ids)
    for s, k, d, origin in table.deps:
        if pe[s] == pe[k]:
            continue
        src.append(s)
        snk.append(k)
        delay.append(d)
        kind.append(EdgeKind.IPC)
        origin_edge.append(origin)
    ipc = TimedGraph(
        name or schedule.graph.name + suffix,
        names,
        [task[3] for task in table.tasks],
        pe,
        [task[1] for task in table.tasks],
        src, snk, delay, kind, origin_edge,
    )
    if ipc.zero_delay_cycle():
        raise GraphError(
            f"IPC graph {ipc.name!r} has a zero-delay cycle; the schedule "
            f"deadlocks"
        )
    return ipc
