"""Single-PE reference execution for conformance cases.

This is the semantic ground truth the differential oracles compare
against: a direct interpreter that fires the PASS (periodic admissible
sequential schedule) of the case's graph, moving tokens through plain
FIFOs with no timing model, no protocols and no message passing — just
SDF firing rules.  Dynamic graphs are VTS-converted first (rates become
1/1 packed tokens), and because the conversion *wraps* the original
kernels, the shared :class:`~repro.conformance.spec.TokenTap` still
observes the raw token streams, directly comparable to the SPI and MPI
runs of the same case.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.conformance.spec import ConformanceCase
from repro.dataflow.sdf import build_pass
from repro.dataflow.vts import VtsConversion, vts_convert

__all__ = ["ReferenceError", "run_reference"]


class ReferenceError(RuntimeError):
    """The reference execution itself could not complete."""


def run_reference(
    case: ConformanceCase,
    iterations: int,
    label: str = "reference",
    conversion: Optional[VtsConversion] = None,
) -> Dict[str, List[tuple]]:
    """Execute ``iterations`` graph iterations on a conceptual single PE.

    Records every firing through ``case.tap`` under ``label`` and returns
    the recorded streams (``actor name -> [(firing, inputs, outputs)]``).
    ``conversion`` may pass the VTS conversion of a dynamic case's
    graph when the caller already holds one; the reference only reads
    it.
    """
    if iterations < 1:
        raise ReferenceError("iterations must be >= 1")
    graph = case.graph
    if graph.is_dynamic:
        if conversion is None:
            conversion = vts_convert(graph)
        graph = conversion.graph
        repetitions = conversion.repetitions
    else:
        repetitions = case.spec.repetitions()
    schedule = build_pass(graph, repetitions)

    fifos: Dict[int, deque] = {}
    for edge in graph.edges:
        initial = edge.initial_tokens
        if initial is None:
            initial = [None] * edge.delay
        fifos[edge.edge_id] = deque(initial)

    firing_counts: Dict[str, int] = {actor.name: 0 for actor in graph.actors}
    case.tap.begin(label)
    for _ in range(iterations):
        for actor in schedule:
            index = firing_counts[actor.name]
            # Pop per member edge (a gather sink port has several
            # in-edges); assemble per port via the owning connection.
            branch_pops: Dict[str, List[tuple]] = {}
            for edge in graph.in_edges(actor):
                fifo = fifos[edge.edge_id]
                rate = edge.cons_rate
                if len(fifo) < rate:
                    raise ReferenceError(
                        f"PASS starved: {actor.name} firing {index} needs "
                        f"{rate} tokens on {edge.name!r}, has {len(fifo)}"
                    )
                values = [fifo.popleft() for _ in range(rate)]
                branch_pops.setdefault(edge.sink.name, []).append(
                    (edge.branch_index, edge.connection, values)
                )
            consumed: Dict[str, list] = {}
            for port_name, branches in branch_pops.items():
                branches.sort(key=lambda item: item[0])
                if len(branches) == 1:
                    consumed[port_name] = branches[0][2]
                else:
                    consumed[port_name] = branches[0][1].assemble(
                        [values for _, _, values in branches]
                    )
            produced = actor.fire(index, consumed)
            for edge in graph.out_edges(actor):
                fifos[edge.edge_id].extend(produced[edge.source.name])
            firing_counts[actor.name] = index + 1
    return case.tap.streams(label)
