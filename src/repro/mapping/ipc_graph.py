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
from repro.mapping.timed_graph import EdgeKind, TimedEdge, TimedGraph, TimedVertex

__all__ = ["build_ipc_graph"]


def build_ipc_graph(schedule: SelfTimedSchedule, name: str = "") -> TimedGraph:
    """Construct ``G_ipc`` from a self-timed schedule.

    The task table of the schedule (the application graph itself, or
    its HSDF expansion for multirate applications) provides the tasks
    and the data edges; the per-PE orders provide the sequencing edges.
    """
    table = schedule.task_table
    suffix = "_ipc" if schedule.homogeneous else "_hsdf_ipc"
    ipc = TimedGraph(name or schedule.graph.name + suffix)
    task_pe = schedule.task_pe
    for task, origin, _, cycles in table.tasks:
        ipc.add_vertex(
            TimedVertex(
                name=task, cycles=cycles, pe=task_pe[task], origin_actor=origin
            )
        )

    for pe, order in schedule.orders.items():
        if not order:
            continue
        for earlier, later in zip(order, order[1:]):
            ipc.add_edge(
                TimedEdge(
                    src=earlier,
                    snk=later,
                    delay=0,
                    kind=EdgeKind.INTRA,
                )
            )
        # Processor wrap-around: iteration k+1's first task waits for
        # iteration k's last task.
        ipc.add_edge(
            TimedEdge(
                src=order[-1],
                snk=order[0],
                delay=1,
                kind=EdgeKind.INTRA,
            )
        )

    for s, k, delay, origin_edge, payload in table.deps:
        src, snk = table.tasks[s][0], table.tasks[k][0]
        if task_pe[src] == task_pe[snk]:
            continue
        ipc.add_edge(
            TimedEdge(
                src=src,
                snk=snk,
                delay=delay,
                kind=EdgeKind.IPC,
                payload_bytes=payload,
                origin_edge=origin_edge,
            )
        )

    if ipc.has_zero_delay_cycle():
        raise GraphError(
            f"IPC graph {ipc.name!r} has a zero-delay cycle; the schedule "
            f"deadlocks"
        )
    return ipc
