"""Homogeneous SDF (HSDF) expansion.

Multiprocessor analysis (IPC graphs, synchronization graphs, maximum
cycle mean) operates on *tasks* with unit production/consumption — the
homogeneous special case of SDF.  A multirate SDF graph is expanded into
an equivalent HSDF graph by instantiating one vertex per actor
*invocation* (repetitions-vector many per actor) and one precedence edge
per inter-invocation token dependency, annotated with the iteration
offset (delay) of the dependency.

The construction follows Sriram & Bhattacharyya: consumer invocation
``j`` of iteration ``m`` consumes global tokens
``(m*q_snk + j)*c .. +c-1``; token ``t`` (``t >= d`` after the ``d``
initial tokens) was produced by global producer invocation
``(t - d) // p``.  Because one full iteration moves exactly
``q_src*p == q_snk*c`` tokens, the iteration offset between a fixed
``(i, j)`` invocation pair is constant, so it can be read off at any
sufficiently late iteration.  The offsets are computed in closed form,
O(dependencies) per edge rather than O(tokens).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.dataflow.graph import DataflowGraph, GraphError
from repro.dataflow.sdf import repetitions_vector

__all__ = ["hsdf_expand", "invocation_name"]


def _edge_dependencies(
    p: int, c: int, d: int, q_src: int, q_snk: int, m: int
) -> Dict[Tuple[int, int], int]:
    """Closed-form invocation dependencies, O(deps) instead of O(tokens).

    Consumer invocation ``j`` of iteration ``m`` reads the token window
    ``[a, a + c - 1]`` with ``a = (m*q_snk + j)*c``; its producer
    *globals* are exactly ``g in [(a - d)//p, (a + c - 1 - d)//p]``
    (each global ``g`` fires as invocation ``i = g mod q_src`` of
    iteration ``n = g // q_src``, so the offset is ``delta = m - n``).
    Per local invocation ``i`` the minimal offset comes from the largest
    such ``g`` with that residue, and the top ``q_src``-length slice of
    the range contains the largest occurrence of every residue present —
    so scanning only that slice yields the same (i, min-delta) map as
    enumerating all ``c`` tokens.  Which residues appear (and the
    resulting delta pattern per ``j``) is governed by the gcd structure
    of ``p`` and ``c`` (Sriram & Bhattacharyya), but it never needs to
    be materialised token by token.
    """
    deps: Dict[Tuple[int, int], int] = {}
    for j in range(q_snk):
        a = (m * q_snk + j) * c
        g_lo = (a - d) // p
        g_hi = (a + c - 1 - d) // p
        g_start = g_lo if g_hi - g_lo < q_src else g_hi - q_src + 1
        for g in range(g_start, g_hi + 1):
            n, i = divmod(g, q_src)
            key = (i, j)
            delta = m - n
            if key not in deps or delta < deps[key]:
                deps[key] = delta
    return deps


def invocation_name(actor_name: str, index: int) -> str:
    """Canonical name of invocation ``index`` of ``actor_name``."""
    return f"{actor_name}#{index}"


def hsdf_expand(
    graph: DataflowGraph,
    name: str = "",
    repetitions: Optional[Dict[str, int]] = None,
) -> DataflowGraph:
    """Expand a consistent SDF graph into its homogeneous equivalent.

    Every port of the result has rate 1.  Invocation vertices inherit the
    kernel-free timing model of their actor (``cycles`` of the original
    actor, evaluated at the invocation's local firing index).  Ports are
    synthesised per edge; the result is only meant for precedence/timing
    analysis, not functional execution.  ``repetitions`` may pass the
    graph's repetitions vector when the caller already has it.
    """
    reps = repetitions if repetitions is not None else repetitions_vector(graph)
    expanded = DataflowGraph(name or f"{graph.name}_hsdf")

    for actor in graph.actors:
        for index in range(reps[actor.name]):
            def cycles_model(firing, inputs, _actor=actor, _index=index):
                return _actor.execution_cycles(_index, inputs)

            expanded.actor(
                invocation_name(actor.name, index),
                cycles=cycles_model,
                params={"origin": actor.name, "invocation": index},
            )

    port_counter: Dict[str, int] = {}

    def fresh_port(owner_name: str, direction: str):
        owner = expanded.get_actor(owner_name)
        count = port_counter.get(owner_name, 0)
        port_counter[owner_name] = count + 1
        if direction == "out":
            return owner.add_output(f"o{count}")
        return owner.add_input(f"i{count}")

    for edge in graph.edges:
        p = edge.prod_rate
        c = edge.cons_rate
        d = edge.delay
        q_src = reps[edge.src_actor.name]
        q_snk = reps[edge.snk_actor.name]
        if not isinstance(p, int) or not isinstance(c, int):
            raise GraphError(
                f"edge {edge.name} is dynamic; VTS-convert before HSDF "
                f"expansion"
            )
        # Late enough that every consumed token has a producer.
        m = d // (q_snk * c) + 1
        deps = _edge_dependencies(p, c, d, q_src, q_snk, m)
        if any(delta < 0 for delta in deps.values()):
            raise GraphError(
                f"internal error: negative iteration offset on "
                f"edge {edge.name}"
            )
        for (i, j), delta in sorted(deps.items()):
            src_inv = invocation_name(edge.src_actor.name, i)
            snk_inv = invocation_name(edge.snk_actor.name, j)
            if src_inv == snk_inv and delta == 0:
                raise GraphError(
                    f"edge {edge.name} induces a zero-delay self "
                    f"dependency on {src_inv} — graph deadlocks"
                )
            expanded.connect(
                fresh_port(src_inv, "out"),
                fresh_port(snk_inv, "in"),
                delay=delta,
                name=f"{edge.name}[{i}->{j}]",
            )
    return expanded
