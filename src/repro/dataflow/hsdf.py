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

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

from repro.dataflow.graph import DataflowGraph, GraphError
from repro.dataflow.sdf import repetitions_vector

__all__ = ["TaskTable", "expansion_table", "hsdf_expand", "invocation_name"]


@dataclass(frozen=True)
class TaskTable:
    """A task graph as two index tables, read by multiprocessor analysis.

    ``tasks[t] = (name, origin, invocation, cycles)``: task ``t`` is
    invocation ``invocation`` of actor ``origin``, which takes
    ``cycles`` with no inputs.  ``deps[k] = (src, snk, delay, name)``:
    dependency ``k`` runs from task ``src`` to task ``snk`` with
    iteration offset ``delay``.
    """

    tasks: Tuple[Tuple[str, str, int, int], ...]
    deps: Tuple[Tuple[int, int, int, str], ...]

    @cached_property
    def index(self) -> Dict[str, int]:
        """Task id by task name."""
        return {task[0]: t for t, task in enumerate(self.tasks)}

    @classmethod
    def of_homogeneous(cls, graph: DataflowGraph) -> "TaskTable":
        """A homogeneous graph as its own task graph: each actor is its
        own single task, each edge one dependency."""
        actors = graph.actors
        index = {actor.name: t for t, actor in enumerate(actors)}
        return cls(
            tuple((a.name, a.name, 0, a.execution_cycles(0)) for a in actors),
            tuple(
                (index[e.src_actor.name], index[e.snk_actor.name], e.delay,
                 e.name)
                for e in graph.edges
            ),
        )


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


def expansion_table(
    graph: DataflowGraph, repetitions: Optional[Dict[str, int]] = None
) -> TaskTable:
    """The HSDF expansion of a consistent SDF graph, as a :class:`TaskTable`.

    Tasks list the actors in graph order, each with its invocations
    ascending; dependencies list the edges in graph order, each with
    its ``(i, j)`` invocation pairs sorted, named ``edge[i->j]``.
    ``repetitions`` may pass the graph's repetitions vector when the
    caller already has it.
    """
    reps = repetitions if repetitions is not None else repetitions_vector(graph)
    tasks = []
    first: Dict[str, int] = {}
    for actor in graph.actors:
        first[actor.name] = len(tasks)
        for index in range(reps[actor.name]):
            tasks.append(
                (
                    invocation_name(actor.name, index),
                    actor.name,
                    index,
                    actor.execution_cycles(index),
                )
            )

    table = []
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
            src = first[edge.src_actor.name] + i
            snk = first[edge.snk_actor.name] + j
            if src == snk and delta == 0:
                raise GraphError(
                    f"edge {edge.name} induces a zero-delay self "
                    f"dependency on {tasks[src][0]} — graph deadlocks"
                )
            name = f"{edge.name}[{i}->{j}]"
            table.append((src, snk, delta, name))
    return TaskTable(tuple(tasks), tuple(table))


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
    graph's repetitions vector when the caller already has it.  The
    graph materialises :func:`expansion_table`, which compiles read.
    """
    table = expansion_table(graph, repetitions)
    expanded = DataflowGraph(name or f"{graph.name}_hsdf")
    actors = []
    for task_name, origin, index, _ in table.tasks:
        actor = graph.get_actor(origin)

        def cycles_model(firing, inputs, _actor=actor, _index=index):
            return _actor.execution_cycles(_index, inputs)

        actors.append(
            expanded.actor(
                task_name,
                cycles=cycles_model,
                params={"origin": origin, "invocation": index},
            )
        )
    ports = [0] * len(actors)
    for src, snk, delay, edge_name in table.deps:
        source = actors[src].add_output(f"o{ports[src]}")
        ports[src] += 1
        sink = actors[snk].add_input(f"i{ports[snk]}")
        ports[snk] += 1
        expanded.connect(source, sink, delay=delay, name=edge_name)
    return expanded
