"""Actor-to-processor assignment.

SPI's self-timed methodology takes the processor assignment as an input
(the paper assigns actors by hand for both applications: the parallel
error-generation units of application 1 and the per-PE particle-filter
replicas of application 2).  :class:`Partition` is that assignment, the
object everything downstream reads (self-timed scheduling, IPC-graph
construction, SPI actor insertion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from repro.dataflow.graph import Actor, DataflowGraph, Edge, GraphError
from repro.platform.pe import GPP, PEClass

__all__ = ["Partition"]


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
