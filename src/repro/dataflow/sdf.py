"""Synchronous dataflow (SDF) analysis.

Implements the classic Lee/Messerschmitt machinery the paper relies on:

* **repetitions vector** ``q`` — the smallest positive integer solution of
  the balance equations ``q[src] * prod(e) == q[snk] * cons(e)`` for every
  edge ``e`` (computed with exact integer ratios over a spanning
  forest, then verified on every edge);
* **consistency** — a graph is (sample-rate) consistent iff such a ``q``
  exists;
* **PASS construction** — a periodic admissible sequential schedule is
  built by demand-free symbolic execution; failure to complete one
  iteration proves deadlock.

Dynamic graphs must be VTS-converted first (:func:`repro.dataflow.vts
.vts_convert`); all functions below reject dynamic ports explicitly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.dataflow.graph import Actor, DataflowGraph, Edge, GraphError

__all__ = [
    "SdfError",
    "InconsistentGraphError",
    "DeadlockError",
    "repetitions_vector",
    "is_consistent",
    "build_pass",
    "total_firings_per_iteration",
]


class SdfError(GraphError):
    """Base class for SDF analysis failures."""


class InconsistentGraphError(SdfError):
    """The balance equations admit no positive solution."""


class DeadlockError(SdfError):
    """The graph is consistent but cannot complete a full iteration."""


def _require_static(graph: DataflowGraph) -> None:
    dynamic = [e.name for e in graph.dynamic_edges]
    if dynamic:
        raise SdfError(
            f"graph {graph.name!r} has dynamic edges {dynamic}; apply VTS "
            f"conversion (repro.dataflow.vts.vts_convert) before SDF analysis"
        )


def repetitions_vector(graph: DataflowGraph) -> Dict[str, int]:
    """Smallest positive integer repetitions vector of an SDF graph.

    Returns a mapping ``actor name -> repetition count``.  Raises
    :class:`InconsistentGraphError` when the balance equations have no
    positive solution, and :class:`SdfError` on dynamic or empty graphs.

    The computation propagates exact ratios — reduced ``(num, den)``
    pairs of Python ints — over an (undirected) spanning forest of the
    graph, normalises each connected component to the least common
    multiple of the denominators, and finally verifies the balance
    equation on *every* edge — including the non-tree edges, which is
    where inconsistency shows up.
    """
    _require_static(graph)
    if not graph.actors:
        raise SdfError("cannot compute repetitions vector of an empty graph")

    #: q[name] / q[root of its component] as a reduced (num, den) pair
    ratio: Dict[str, Tuple[int, int]] = {}
    #: (neighbour, mul, div): q[neighbour] / q[node] == mul / div
    adjacency: Dict[str, List[Tuple[str, int, int]]] = {
        a.name: [] for a in graph.actors
    }
    for edge in graph.edges:
        if edge.is_selfloop:
            if edge.prod_rate != edge.cons_rate:
                raise InconsistentGraphError(
                    f"self-loop {edge.name}: production rate "
                    f"{edge.prod_rate} != consumption rate {edge.cons_rate}"
                )
            continue
        # q[snk] / q[src] == prod / cons
        prod, cons = edge.prod_rate, edge.cons_rate
        adjacency[edge.src_actor.name].append((edge.snk_actor.name, prod, cons))
        adjacency[edge.snk_actor.name].append((edge.src_actor.name, cons, prod))

    reps: Dict[str, int] = {}
    for root in graph.actors:
        if root.name in ratio:
            continue
        component = [root.name]
        ratio[root.name] = (1, 1)
        stack = [root.name]
        while stack:
            node = stack.pop()
            num, den = ratio[node]
            for neighbour, mul, div in adjacency[node]:
                if neighbour in ratio:
                    continue
                num_n, den_n = num * mul, den * div
                common = math.gcd(num_n, den_n)
                ratio[neighbour] = (num_n // common, den_n // common)
                component.append(neighbour)
                stack.append(neighbour)
        # Normalise this connected component to the smallest positive
        # integer vector (components scale independently).
        lcm_den = math.lcm(*(ratio[name][1] for name in component))
        scaled = [
            ratio[name][0] * (lcm_den // ratio[name][1]) for name in component
        ]
        gcd_num = math.gcd(*scaled)
        for name, value in zip(component, scaled):
            reps[name] = value // gcd_num

    for edge in graph.edges:
        produced = reps[edge.src_actor.name] * edge.prod_rate
        consumed = reps[edge.snk_actor.name] * edge.cons_rate
        if produced != consumed:
            raise InconsistentGraphError(
                f"graph {graph.name!r} is sample-rate inconsistent at edge "
                f"{edge.name}: {reps[edge.src_actor.name]} x "
                f"{edge.prod_rate} != {reps[edge.snk_actor.name]} x "
                f"{edge.cons_rate}"
            )
    return reps


def is_consistent(graph: DataflowGraph) -> bool:
    """True iff the balance equations admit a positive solution."""
    try:
        repetitions_vector(graph)
    except InconsistentGraphError:
        return False
    return True


def total_firings_per_iteration(graph: DataflowGraph) -> int:
    """Sum of the repetitions vector — total firings in one graph iteration."""
    return sum(repetitions_vector(graph).values())


def build_pass(
    graph: DataflowGraph,
    repetitions: Optional[Dict[str, int]] = None,
) -> List[Actor]:
    """Construct a periodic admissible sequential schedule (PASS).

    Symbolically executes one iteration of the graph: an actor is
    *fireable* when every input edge holds at least ``cons`` tokens, and
    fireable actors with remaining repetitions are fired in a fixed
    (name-sorted) priority order, which makes the result deterministic.

    Returns the firing sequence (one :class:`Actor` entry per firing).
    Raises :class:`DeadlockError` if the iteration cannot complete — by
    the classic SDF theorem this proves that *no* admissible schedule
    exists for the given delays.
    """
    _require_static(graph)
    reps = dict(repetitions) if repetitions is not None else repetitions_vector(graph)
    tokens: Dict[int, int] = {e.edge_id: e.delay for e in graph.edges}
    remaining = dict(reps)
    schedule: List[Actor] = []
    actors = sorted(graph.actors, key=lambda a: a.name)
    in_edges: Dict[str, List[Edge]] = {a.name: [] for a in actors}
    out_edges: Dict[str, List[Edge]] = {a.name: [] for a in actors}
    for edge in graph.edges:
        in_edges[edge.snk_actor.name].append(edge)
        out_edges[edge.src_actor.name].append(edge)

    def fireable(actor: Actor) -> bool:
        if remaining[actor.name] == 0:
            return False
        return all(
            tokens[e.edge_id] >= e.cons_rate for e in in_edges[actor.name]
        )

    total = sum(reps.values())
    while len(schedule) < total:
        progressed = False
        for actor in actors:
            if not fireable(actor):
                continue
            for edge in in_edges[actor.name]:
                tokens[edge.edge_id] -= edge.cons_rate
            for edge in out_edges[actor.name]:
                tokens[edge.edge_id] += edge.prod_rate
            remaining[actor.name] -= 1
            schedule.append(actor)
            progressed = True
        if not progressed:
            starved = sorted(
                name for name, count in remaining.items() if count > 0
            )
            raise DeadlockError(
                f"graph {graph.name!r} deadlocks: actors {starved} cannot "
                f"complete their repetitions (insufficient initial delays "
                f"on some cycle)"
            )
    # One full iteration must restore the initial token state.
    for edge in graph.edges:
        if tokens[edge.edge_id] != edge.delay:
            raise SdfError(
                f"internal error: edge {edge.name} token count "
                f"{tokens[edge.edge_id]} != initial delay {edge.delay} "
                f"after one iteration"
            )
    return schedule
