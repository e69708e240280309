"""Actor-to-processor assignment.

SPI's self-timed methodology takes the processor assignment as an input
(the paper assigns actors by hand for both applications: the parallel
error-generation units of application 1 and the per-PE particle-filter
replicas of application 2).  This module provides:

* :class:`Partition` — the assignment object used by everything
  downstream (self-timed scheduling, IPC-graph construction, SPI actor
  insertion);
* ``manual`` / ``round_robin`` / ``list`` strategies, the last being a
  classic HLFET (highest level first, earliest start) list scheduler so
  that automatically-mapped graphs are also supported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.dataflow.graph import Actor, DataflowGraph, Edge, GraphError
from repro.dataflow.sdf import repetitions_vector
from repro.platform.pe import GPP, PEClass

__all__ = ["Partition", "static_levels"]


def static_levels(graph: DataflowGraph) -> Dict[str, int]:
    """HLFET static level: longest path (in cycles) from actor to any sink.

    Computed over the zero-delay precedence structure; an actor's own
    execution time (cycles of firing 0) is included in its level.
    """
    order = graph.topological_order(ignore_delay_edges=True)
    level: Dict[str, int] = {}
    for actor in reversed(order):
        downstream = 0
        for edge in graph.out_edges(actor):
            if edge.delay > 0:
                continue
            downstream = max(downstream, level.get(edge.snk_actor.name, 0))
        level[actor.name] = actor.execution_cycles(0) + downstream
    return level


@dataclass
class Partition:
    """A mapping of every actor of a graph to a processing element.

    ``assignment`` maps actor name to a PE index in ``range(n_pes)``.

    Heterogeneity is sparse: ``pe_classes`` maps a PE index to its
    :class:`~repro.platform.pe.PEClass`; unmapped PEs are ``gpp``.
    ``batch_size`` is the *requested* blocking factor — the number of
    logical firings every task executes atomically per macro-pass when
    at least one PE is an accelerator (the runtime clamps it to the
    largest admissible value, see
    :func:`repro.mapping.selftimed.max_feasible_batch`).  On an all-gpp
    platform any batch size is a no-op: execution stays one firing at a
    time and is bit-identical to ``batch_size=1``.
    """

    graph: DataflowGraph
    n_pes: int
    assignment: Dict[str, int] = field(default_factory=dict)
    pe_classes: Dict[int, PEClass] = field(default_factory=dict)
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.n_pes < 1:
            raise GraphError("a partition needs at least one PE")
        self.validate()

    # -- constructors ------------------------------------------------------

    @classmethod
    def manual(
        cls, graph: DataflowGraph, assignment: Mapping[str, int]
    ) -> "Partition":
        """Build from an explicit ``actor name -> PE index`` mapping."""
        if not assignment:
            raise GraphError("manual assignment must be non-empty")
        n_pes = max(assignment.values()) + 1
        return cls(graph, n_pes, dict(assignment))

    @classmethod
    def single_processor(cls, graph: DataflowGraph) -> "Partition":
        """Everything on PE 0 (the sequential baseline)."""
        return cls(graph, 1, {a.name: 0 for a in graph.actors})

    @classmethod
    def assign(
        cls, graph: DataflowGraph, n_pes: int, strategy: str = "list"
    ) -> "Partition":
        """Automatic assignment using the named strategy."""
        if strategy == "round_robin":
            return cls._round_robin(graph, n_pes)
        if strategy == "list":
            return cls._list_schedule(graph, n_pes)
        if strategy == "exhaustive":
            return cls.exhaustive(graph, n_pes)
        raise GraphError(
            f"unknown partition strategy {strategy!r}; "
            f"use 'round_robin', 'list' or 'exhaustive' "
            f"(or Partition.manual)"
        )

    @classmethod
    def exhaustive(
        cls,
        graph: DataflowGraph,
        n_pes: int,
        cost: Optional[Callable[["Partition"], float]] = None,
        max_actors: int = 12,
    ) -> "Partition":
        """Optimal assignment by exhaustive search over all mappings.

        Feasible only for small graphs (``n_pes ** actors`` candidates;
        refused above ``max_actors``).  ``cost`` scores a candidate
        (lower is better); the default is the maximum cycle mean of the
        candidate's synchronization graph with a small per-channel
        communication penalty — i.e. the throughput the self-timed
        implementation can reach.  Symmetry is broken by fixing the
        first actor on PE 0.

        The search walks candidates depth-first in the same order the
        itertools.product enumeration used to, so the returned winner is
        identical — but with the default cost the partition-independent
        schedule setup (HSDF expansion, PASS) is computed once, and any
        subtree whose partial assignment already carries a communication
        penalty at or above the best known cost is pruned (the penalty
        ``2 * cross_edges`` is a lower bound on the default cost because
        the MCM term is non-negative and cross edges only accumulate as
        the assignment extends).
        """
        actors = [a.name for a in graph.topological_order()]
        if len(actors) > max_actors:
            raise GraphError(
                f"exhaustive search over {len(actors)} actors x {n_pes} "
                f"PEs is too large (limit {max_actors})"
            )

        prune = cost is None
        if cost is None:
            from repro.mapping.ipc_graph import build_ipc_graph
            from repro.mapping.mcm import maximum_cycle_mean
            from repro.mapping.selftimed import build_selftimed_schedule, task_plan

            plan = task_plan(graph)

            def default_cost(candidate: "Partition") -> float:
                schedule = build_selftimed_schedule(graph, candidate, plan=plan)
                ipc = build_ipc_graph(schedule)
                penalty = 2.0 * len(candidate.interprocessor_edges())
                return maximum_cycle_mean(ipc) + penalty

            score: Callable[["Partition"], float] = default_cost
        else:
            score = cost

        # Edges whose later-assigned endpoint is actor k (self-edges are
        # never interprocessor, multi-edges count multiply, matching
        # interprocessor_edges()).
        index = {name: k for k, name in enumerate(actors)}
        edges_closing_at: List[List[int]] = [[] for _ in actors]
        for edge in graph.edges:
            a = index[edge.src_actor.name]
            b = index[edge.snk_actor.name]
            if a != b:
                edges_closing_at[max(a, b)].append(min(a, b))

        best: Optional["Partition"] = None
        best_cost = float("inf")
        pe_of = [0] * len(actors)

        def walk(k: int, cross: int) -> None:
            nonlocal best, best_cost
            if prune and 2.0 * cross >= best_cost:
                return
            if k == len(actors):
                candidate = cls(graph, n_pes, dict(zip(actors, pe_of)))
                value = score(candidate)
                if value < best_cost:
                    best, best_cost = candidate, value
                return
            for pe in (0,) if k == 0 else range(n_pes):
                pe_of[k] = pe
                added = sum(
                    1 for other in edges_closing_at[k] if pe_of[other] != pe
                )
                walk(k + 1, cross + added)

        walk(0, 0)
        assert best is not None
        return best

    @classmethod
    def _round_robin(cls, graph: DataflowGraph, n_pes: int) -> "Partition":
        order = graph.topological_order(ignore_delay_edges=True)
        assignment = {a.name: i % n_pes for i, a in enumerate(order)}
        return cls(graph, n_pes, assignment)

    @classmethod
    def _list_schedule(cls, graph: DataflowGraph, n_pes: int) -> "Partition":
        """HLFET: schedule ready actors highest-level-first onto the PE
        that allows the earliest start, accounting for a unit IPC penalty
        between different PEs (enough to make the heuristic locality-aware
        without presupposing a platform model)."""
        reps = repetitions_vector(graph)
        levels = static_levels(graph)
        order = graph.topological_order(ignore_delay_edges=True)
        ready_time: Dict[str, int] = {}
        pe_free = [0] * n_pes
        assignment: Dict[str, int] = {}
        finish: Dict[str, int] = {}
        ipc_penalty = 1

        for actor in sorted(order, key=lambda a: (-levels[a.name], a.name)):
            # data-ready times per candidate PE
            best_pe, best_start = 0, None
            for pe in range(n_pes):
                start = pe_free[pe]
                for edge in graph.in_edges(actor):
                    if edge.delay > 0:
                        continue
                    pred = edge.src_actor.name
                    arrive = finish.get(pred, 0)
                    if assignment.get(pred) != pe:
                        arrive += ipc_penalty
                    start = max(start, arrive)
                if best_start is None or start < best_start:
                    best_pe, best_start = pe, start
            assignment[actor.name] = best_pe
            duration = actor.execution_cycles(0) * reps[actor.name]
            finish[actor.name] = best_start + duration
            pe_free[best_pe] = finish[actor.name]
        return cls(graph, n_pes, assignment)

    # -- queries -----------------------------------------------------------

    def validate(self) -> None:
        names = {a.name for a in self.graph.actors}
        missing = names - set(self.assignment)
        if missing:
            raise GraphError(
                f"partition does not assign actors {sorted(missing)}"
            )
        extra = set(self.assignment) - names
        if extra:
            raise GraphError(
                f"partition assigns unknown actors {sorted(extra)}"
            )
        bad = {
            name: pe
            for name, pe in self.assignment.items()
            if not 0 <= pe < self.n_pes
        }
        if bad:
            raise GraphError(
                f"PE indices out of range [0, {self.n_pes}): {bad}"
            )
        if self.batch_size < 1:
            raise GraphError("batch_size must be >= 1")
        bad_classes = {
            pe: kind
            for pe, kind in self.pe_classes.items()
            if not 0 <= pe < self.n_pes
        }
        if bad_classes:
            raise GraphError(
                f"pe_classes indices out of range [0, {self.n_pes}): "
                f"{sorted(bad_classes)}"
            )
        for pe, kind in self.pe_classes.items():
            if not isinstance(kind, PEClass):
                raise GraphError(
                    f"pe_classes[{pe}] must be a PEClass, got {kind!r}"
                )

    def pe_of(self, actor: Actor) -> int:
        return self.assignment[actor.name]

    def pe_class_of(self, pe: int) -> PEClass:
        """The execution-cost model of PE ``pe`` (default: gpp)."""
        return self.pe_classes.get(pe, GPP)

    @property
    def has_accelerators(self) -> bool:
        return any(kind.is_accelerator for kind in self.pe_classes.values())

    @property
    def requested_batch(self) -> int:
        """The blocking factor batching actually requests: ``batch_size``
        when the platform has an accelerator PE, else 1 (the gpp no-op
        rule that keeps homogeneous platforms bit-identical)."""
        return self.batch_size if self.has_accelerators else 1

    def interprocessor_edges(self) -> List[Edge]:
        """Edges whose endpoints live on different PEs — these are exactly
        the edges SPI replaces with SPI_send / SPI_receive actor pairs."""
        return [
            e
            for e in self.graph.edges
            if self.assignment[e.src_actor.name] != self.assignment[e.snk_actor.name]
        ]

    def local_edges(self) -> List[Edge]:
        return [
            e
            for e in self.graph.edges
            if self.assignment[e.src_actor.name] == self.assignment[e.snk_actor.name]
        ]

    @property
    def used_pes(self) -> List[int]:
        return sorted(set(self.assignment.values()))

    def __repr__(self) -> str:
        return f"Partition(n_pes={self.n_pes}, assignment={self.assignment})"
