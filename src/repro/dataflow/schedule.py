"""Schedule representations for SDF graphs.

Two forms are provided:

* :class:`FlatSchedule` — an explicit firing sequence (what
  :func:`repro.dataflow.sdf.build_pass` produces);
* :class:`LoopedSchedule` — the compact ``(n S1 S2 ...)`` loop-nest form
  used throughout the software-synthesis literature the paper cites.
  Single-appearance schedules keep generated code (and, for us, schedule
  tables) small.

Both can be *expanded* to a firing sequence, *validated* against a graph
(admissibility: no edge ever underflows) and *profiled* for buffer needs
and single-processor makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from repro.dataflow.graph import Actor, DataflowGraph, GraphError
from repro.dataflow.sdf import repetitions_vector

__all__ = [
    "FlatSchedule",
    "ScheduleLoop",
    "LoopedSchedule",
    "single_appearance_schedule",
    "ScheduleProfile",
]


@dataclass
class ScheduleProfile:
    """Result of profiling a schedule against its graph."""

    makespan_cycles: int
    buffer_tokens: Dict[int, int]  # edge_id -> max tokens
    firings: int


class FlatSchedule:
    """An explicit single-processor firing sequence."""

    def __init__(self, graph: DataflowGraph, firings: Sequence[Actor]) -> None:
        self.graph = graph
        self.firings: List[Actor] = list(firings)
        for actor in self.firings:
            if actor.graph is not graph:
                raise GraphError(
                    f"firing of {actor.name!r} does not belong to graph "
                    f"{graph.name!r}"
                )

    def __len__(self) -> int:
        return len(self.firings)

    def __iter__(self):
        return iter(self.firings)

    def counts(self) -> Dict[str, int]:
        """Firings per actor in this schedule."""
        result: Dict[str, int] = {}
        for actor in self.firings:
            result[actor.name] = result.get(actor.name, 0) + 1
        return result

    def validate_admissible(self) -> None:
        """Raise :class:`GraphError` if any edge underflows mid-schedule."""
        tokens = {e.edge_id: e.delay for e in self.graph.edges}
        for actor in self.firings:
            for edge in self.graph.in_edges(actor):
                tokens[edge.edge_id] -= edge.cons_rate
                if tokens[edge.edge_id] < 0:
                    raise GraphError(
                        f"schedule underflows edge {edge.name} at a firing "
                        f"of {actor.name!r}"
                    )
            for edge in self.graph.out_edges(actor):
                tokens[edge.edge_id] += edge.prod_rate

    def profile(self) -> ScheduleProfile:
        """Makespan (sequential cycles) and per-edge buffer high-water marks."""
        self.validate_admissible()
        tokens = {e.edge_id: e.delay for e in self.graph.edges}
        high = dict(tokens)
        cycles = 0
        index: Dict[str, int] = {}
        for actor in self.firings:
            k = index.get(actor.name, 0)
            index[actor.name] = k + 1
            cycles += actor.execution_cycles(k)
            for edge in self.graph.in_edges(actor):
                tokens[edge.edge_id] -= edge.cons_rate
            for edge in self.graph.out_edges(actor):
                tokens[edge.edge_id] += edge.prod_rate
                high[edge.edge_id] = max(high[edge.edge_id], tokens[edge.edge_id])
        return ScheduleProfile(
            makespan_cycles=cycles,
            buffer_tokens=high,
            firings=len(self.firings),
        )

    def __repr__(self) -> str:
        return f"FlatSchedule({' '.join(a.name for a in self.firings)})"


@dataclass
class ScheduleLoop:
    """A ``(count body...)`` loop in a looped schedule."""

    count: int
    body: Tuple[Union["ScheduleLoop", str], ...]

    def __post_init__(self) -> None:
        if self.count < 1:
            raise GraphError("schedule loop count must be >= 1")
        if not self.body:
            raise GraphError("schedule loop body must be non-empty")

    def expand(self) -> List[str]:
        names: List[str] = []
        for _ in range(self.count):
            for item in self.body:
                if isinstance(item, ScheduleLoop):
                    names.extend(item.expand())
                else:
                    names.append(item)
        return names

    def __str__(self) -> str:
        inner = " ".join(
            str(item) if isinstance(item, ScheduleLoop) else item
            for item in self.body
        )
        return f"({self.count} {inner})"


class LoopedSchedule:
    """A loop-nest schedule over actor names."""

    def __init__(self, graph: DataflowGraph, root: ScheduleLoop) -> None:
        self.graph = graph
        self.root = root

    def flatten(self) -> FlatSchedule:
        firings = [self.graph.get_actor(name) for name in self.root.expand()]
        return FlatSchedule(self.graph, firings)

    def __str__(self) -> str:
        return str(self.root)


def single_appearance_schedule(graph: DataflowGraph) -> LoopedSchedule:
    """Build a single-appearance looped schedule for an acyclic-like graph.

    Uses the topological order (delay edges ignored) with loop factors
    from the repetitions vector: ``(1 (qA A) (qB B) ...)``.  This is the
    flat single-appearance strategy; it is always admissible for graphs
    whose zero-delay subgraph is acyclic because every actor's producers
    complete all their firings first.
    """
    reps = repetitions_vector(graph)
    order = graph.topological_order(ignore_delay_edges=True)
    body = tuple(ScheduleLoop(reps[a.name], (a.name,)) for a in order)
    schedule = LoopedSchedule(graph, ScheduleLoop(1, body))
    schedule.flatten().validate_admissible()
    return schedule
