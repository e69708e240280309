"""Maximum cycle mean and self-timed timing analysis of timed graphs.

The asymptotic iteration period of a self-timed implementation is the
**maximum cycle mean** (MCM) of its synchronization graph:

    lambda* = max over directed cycles C of
              (sum of task execution times on C) / (sum of edge delays on C)

A cycle with zero total delay means deadlock (infinite period).  Edge
delays play the role of "tokens" in the ratio, so this is the general
cost-to-time ratio problem.  It is solved by Howard's policy iteration
over the array-backed engine (:mod:`repro.mapping.graph_arrays`), which
converges in a handful of O(V+E) value-determination sweeps and yields
an **exact** :class:`McmResult`: the value is the float quotient of the
critical cycle's integer execution-time and delay sums, and the cycle
itself is returned as a witness.

:func:`simulate_selftimed` executes eq. 3 directly, one per-edge sweep
per iteration; it is the exact reference the MCM is checked against.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.mapping.graph_arrays import howard_mcm
from repro.mapping.timed_graph import TimedGraph

__all__ = [
    "McmResult",
    "maximum_cycle_mean",
    "maximum_cycle_mean_result",
    "simulate_selftimed",
    "zero_delay_topological_order",
    "SelfTimedTrace",
]


@dataclass(frozen=True)
class McmResult:
    """Exact MCM with its critical-cycle witness.

    ``cycle`` lists the task names along one critical cycle (in edge
    succession order; empty for acyclic graphs), and ``total_cycles`` / ``total_delay`` are the
    integer sums whose quotient is ``value`` — for a deadlock witness
    ``total_delay`` is 0 and ``value`` is ``math.inf``.
    """

    value: float
    cycle: Tuple[str, ...] = ()
    total_cycles: int = 0
    total_delay: int = 0

    @property
    def is_deadlock(self) -> bool:
        return math.isinf(self.value)

    def to_dict(self) -> Dict[str, object]:
        return {
            "value": self.value,
            "cycle": list(self.cycle),
            "total_cycles": self.total_cycles,
            "total_delay": self.total_delay,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "McmResult":
        """Inverse of :meth:`to_dict`; unknown keys are ignored."""
        return cls(
            value=float(payload["value"]),
            cycle=tuple(payload.get("cycle", ())),
            total_cycles=int(payload.get("total_cycles", 0)),
            total_delay=int(payload.get("total_delay", 0)),
        )


def maximum_cycle_mean_result(graph: TimedGraph) -> McmResult:
    """MCM of ``graph`` with a critical-cycle witness.

    Deadlocked graphs return ``math.inf`` with a zero-delay cycle as the
    witness; acyclic graphs return 0.0.
    """
    names = graph.names
    cycle = graph.zero_delay_cycle()
    if cycle:
        return McmResult(
            value=math.inf,
            cycle=tuple(names[v] for v in cycle),
            total_cycles=sum(graph.cycles[v] for v in cycle),
            total_delay=0,
        )
    if not graph.m:
        return McmResult(value=0.0)
    value, total_cycles, total_delay, edge_ids = howard_mcm(graph)
    return McmResult(
        value=value,
        cycle=tuple(names[graph.src[eid]] for eid in edge_ids),
        total_cycles=total_cycles,
        total_delay=total_delay,
    )


def maximum_cycle_mean(graph: TimedGraph) -> float:
    """MCM of ``graph`` in cycles per iteration.

    Returns ``math.inf`` when a zero-delay cycle exists (deadlock), and
    ``0.0`` for acyclic graphs (no throughput constraint).  See
    :func:`maximum_cycle_mean_result` for the witnessed variant.
    """
    return maximum_cycle_mean_result(graph).value


@dataclass
class SelfTimedTrace:
    """Start/end times of every task invocation over a simulated horizon."""

    start: Dict[Tuple[str, int], int]
    end: Dict[Tuple[str, int], int]
    iterations: int

    def makespan(self) -> int:
        return max(self.end.values(), default=0)

    def iteration_period(self, reference: str, settle: int = 2) -> float:
        """Average steady-state period of ``reference``'s start times.

        The first ``settle`` iterations are discarded as transient.
        """
        points = [
            self.start[(reference, k)]
            for k in range(self.iterations)
            if (reference, k) in self.start
        ]
        if len(points) <= settle + 1:
            raise ValueError(
                f"need more than {settle + 1} iterations to estimate the "
                f"period (have {len(points)})"
            )
        span = points[-1] - points[settle]
        return span / (len(points) - 1 - settle)


def zero_delay_topological_order(graph: TimedGraph) -> List[str]:
    """Deterministic topological order of the zero-delay subgraph.

    Kahn's algorithm with a min-heap ready queue keyed on task name —
    the unique lexicographically-smallest topological order, independent
    of vertex/edge insertion order.  Raises ``ValueError`` on a
    zero-delay cycle.
    """
    names = [v.name for v in graph.vertices]
    indegree = {name: 0 for name in names}
    zero_out: Dict[str, List[str]] = {name: [] for name in names}
    for edge in graph.edges:
        if edge.delay == 0:
            indegree[edge.snk] += 1
            zero_out[edge.src].append(edge.snk)
    ready = [name for name in names if indegree[name] == 0]
    heapq.heapify(ready)
    topo: List[str] = []
    while ready:
        node = heapq.heappop(ready)
        topo.append(node)
        for nxt in zero_out[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(topo) != len(names):
        raise ValueError(
            f"graph {graph.name!r} has a zero-delay cycle; self-timed "
            f"execution deadlocks"
        )
    return topo


def simulate_selftimed(graph: TimedGraph, iterations: int) -> SelfTimedTrace:
    """Execute the self-timed semantics of eq. 3 exactly.

    ``start(v, k) = max over in-edges e of end(src(e), k - delay(e))``
    (constraints reaching before iteration 0 are vacuous), and
    ``end(v, k) = start(v, k) + t(v)``.  Within one iteration the
    zero-delay edges form a DAG (checked), so a topological sweep per
    iteration suffices.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    topo = zero_delay_topological_order(graph)
    t = {v.name: v.cycles for v in graph.vertices}
    in_edges = {name: graph.in_edges(name) for name in topo}
    start: Dict[Tuple[str, int], int] = {}
    end: Dict[Tuple[str, int], int] = {}
    for k in range(iterations):
        for name in topo:
            ready_at = 0
            for edge in in_edges[name]:
                src_iter = k - edge.delay
                if src_iter < 0:
                    continue
                ready_at = max(ready_at, end[(edge.src, src_iter)])
            start[(name, k)] = ready_at
            end[(name, k)] = ready_at + t[name]
    return SelfTimedTrace(start=start, end=end, iterations=iterations)
