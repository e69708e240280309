"""Self-timed multiprocessor schedule construction.

Under the self-timed scheduling model (the one SPI adopts — paper §2),
compile time fixes (a) the actor-to-PE assignment and (b) the *order* in
which each PE cycles through its tasks; the actual firing times are
resolved at run time by data availability.  This module derives the
per-PE task orders from a deterministic PASS of the application graph,
so the orders are always admissible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.dataflow.graph import DataflowGraph, GraphError
from repro.dataflow.hsdf import (
    TaskTable,
    expansion_table,
    invocation_name,
)
from repro.dataflow.sdf import build_pass, repetitions_vector
from repro.mapping.partition import Partition

__all__ = [
    "SelfTimedSchedule",
    "build_selftimed_schedule",
    "batch_is_admissible",
    "max_feasible_batch",
]


@dataclass
class SelfTimedSchedule:
    """A self-timed schedule: per-PE cyclic task orders.

    ``orders[pe]`` is the list of task names PE ``pe`` executes, in order,
    once per graph iteration, wrapping around self-timed (each PE starts
    its next pass as soon as data allows).

    For multirate graphs the tasks are HSDF invocations
    (``actor#k`` names) of the expansion held as columns in ``task_table``;
    for homogeneous graphs the tasks are the actors themselves and the
    invocation index is always 0.  ``repetitions`` is the repetitions
    vector of ``graph``.
    """

    graph: DataflowGraph
    partition: Partition
    orders: Dict[int, List[str]]
    task_table: TaskTable
    homogeneous: bool
    repetitions: Dict[str, int]
    task_pe: Dict[str, int] = field(default_factory=dict)

    def firing_script(self) -> Dict[int, List[Tuple[str, str]]]:
        """Flat per-PE firing plan: ``[(task name, origin actor), ...]``.

        Pre-resolves the HSDF invocation -> origin-actor indirection
        once per compile instead of once per program construction; the
        SPI runtime and the MPI baseline both assemble their per-PE
        programs from exactly this plan.  For homogeneous graphs the
        task name and the origin coincide.
        """
        tasks, index = self.task_table.tasks, self.task_table.index
        return {
            pe: [(name, tasks[index[name]][1]) for name in order]
            for pe, order in self.orders.items()
        }

    @property
    def n_pes(self) -> int:
        return self.partition.n_pes

    def validate(self) -> None:
        """Each task appears exactly once, on the PE its actor is mapped to."""
        seen: Dict[str, int] = {}
        for pe, order in self.orders.items():
            for task in order:
                if task in seen:
                    raise GraphError(
                        f"task {task!r} scheduled on both PE {seen[task]} "
                        f"and PE {pe}"
                    )
                seen[task] = pe
        expected = set(self.task_table.index)
        if set(seen) != expected:
            missing = expected - set(seen)
            extra = set(seen) - expected
            raise GraphError(
                f"schedule covers wrong task set (missing={sorted(missing)}, "
                f"extra={sorted(extra)})"
            )


def build_selftimed_schedule(
    graph: DataflowGraph, partition: Partition
) -> SelfTimedSchedule:
    """Derive a self-timed schedule from a deterministic PASS.

    Multirate graphs are HSDF-expanded first; each invocation inherits the
    PE of its actor.  The per-PE order is the order in which the PASS
    fires the invocations, which guarantees an admissible (deadlock-free)
    self-timed execution given sufficient buffer space.
    """
    reps = repetitions_vector(graph)
    homogeneous = all(count == 1 for count in reps.values()) and all(
        isinstance(p.rate, int) and p.rate == 1
        for a in graph.actors
        for p in a.ports
    )
    pass_firings = build_pass(graph, repetitions=reps)
    if homogeneous:
        tasks = TaskTable.of_homogeneous(graph)
        task_sequence = [a.name for a in pass_firings]
        task_pe = {a.name: partition.pe_of(a) for a in graph.actors}
    else:
        tasks = expansion_table(graph, repetitions=reps)
        counters: Dict[str, int] = {}
        task_sequence = []
        for actor in pass_firings:
            k = counters.get(actor.name, 0)
            counters[actor.name] = k + 1
            task_sequence.append(invocation_name(actor.name, k))
        task_pe = {
            name: partition.assignment[origin]
            for name, origin, _, _ in tasks.tasks
        }

    orders: Dict[int, List[str]] = {pe: [] for pe in range(partition.n_pes)}
    for task in task_sequence:
        orders[task_pe[task]].append(task)

    schedule = SelfTimedSchedule(
        graph=graph,
        partition=partition,
        orders=orders,
        task_table=tasks,
        homogeneous=homogeneous,
        task_pe=task_pe,
        repetitions=reps,
    )
    schedule.validate()
    return schedule


def batch_is_admissible(schedule: SelfTimedSchedule, batch: int) -> bool:
    """Is a *blocked* execution with blocking factor ``batch`` deadlock-free?

    Under batched execution every task of every PE runs ``batch``
    logical firings atomically per macro-pass (a blocked schedule in the
    Lee/Messerschmitt sense): one task execution consumes/produces
    ``batch * rate`` tokens in one burst.  That is admissible iff a
    symbolic token simulation of one macro-pass completes — each PE
    advances through its cyclic order, a task fires only when every
    input edge of the task graph holds the full burst (every edge moves
    one token per firing at either end).  One macro-pass
    suffices: a consistent graph returns to its initial token state
    after any whole number of iterations.

    Feedback edges whose delay is below the burst size are exactly what
    fails here (the particle filter's capacity loop clamps to 1).
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if batch == 1:
        return True  # the PASS-derived orders are admissible by construction
    table = schedule.task_table
    tokens = [delay for _, _, delay, _ in table.deps]
    in_edges: List[List[int]] = [[] for _ in table.tasks]
    out_edges: List[List[int]] = [[] for _ in table.tasks]
    for k, (src, snk, _, _) in enumerate(table.deps):
        in_edges[snk].append(k)
        out_edges[src].append(k)

    index = table.index
    pointers = {pe: 0 for pe in schedule.orders}
    remaining = sum(len(order) for order in schedule.orders.values())
    while remaining:
        advanced = False
        for pe, order in schedule.orders.items():
            i = pointers[pe]
            if i >= len(order):
                continue
            task = index[order[i]]
            if all(tokens[k] >= batch for k in in_edges[task]):
                for k in in_edges[task]:
                    tokens[k] -= batch
                for k in out_edges[task]:
                    tokens[k] += batch
                pointers[pe] = i + 1
                remaining -= 1
                advanced = True
        if not advanced:
            return False
    return True


def max_feasible_batch(schedule: SelfTimedSchedule, requested: int) -> int:
    """Largest admissible blocking factor ``<= requested`` (>= 1)."""
    if requested < 1:
        raise ValueError("requested batch must be >= 1")
    for batch in range(requested, 1, -1):
        if batch_is_admissible(schedule, batch):
            return batch
    return 1
