"""Timed task graphs: the common substrate of IPC and synchronization graphs.

An IPC graph / synchronization graph (paper §4) is a directed multigraph
whose vertices are *tasks* (actor invocations with execution times and a
processor assignment) and whose edges carry *delays* (iteration offsets).
Edge kinds distinguish the roles the paper assigns them:

* ``intra``  — same-PE sequencing edge (schedule order, plus the unit-delay
  wrap-around edge from the last to the first task of each PE);
* ``ipc``    — interprocessor communication edge (data + synchronization);
* ``sync``   — pure synchronization edge (no data), the currency of
  resynchronization;
* ``ack``    — acknowledgment edge of the UBS protocol (sink-to-source
  feedback telling the sender that buffer space was freed).

Every edge, whatever its kind, imposes the paper's eq. 3 constraint:
``start(snk, k) >= end(src, k - delay)``.

A :class:`TimedGraph` is columns: the compile builds them straight from
the schedule's task table, and every analysis
(:mod:`repro.mapping.graph_arrays`) reads them.  :class:`TimedVertex` and
:class:`TimedEdge` are read-only records over the columns, and
:meth:`TimedGraph.from_records` builds a graph from records.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["EdgeRow", "TimedVertex", "TimedEdge", "TimedGraph", "EdgeKind"]

#: One edge as a row: ``(src id, snk id, delay, kind, origin edge)``.
EdgeRow = Tuple[int, int, int, str, Optional[str]]


class EdgeKind:
    """Edge role constants."""

    INTRA = "intra"
    IPC = "ipc"
    SYNC = "sync"
    ACK = "ack"

    ALL = (INTRA, IPC, SYNC, ACK)
    #: kinds that carry a synchronization cost at run time (same-PE
    #: sequencing is free — it is enforced by program order)
    SYNCHRONIZING = (IPC, SYNC, ACK)


@dataclass(frozen=True)
class TimedVertex:
    """A task: one actor invocation mapped onto one PE."""

    name: str
    cycles: int
    pe: int
    origin_actor: Optional[str] = None

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError(f"task {self.name!r}: negative execution time")
        if self.pe < 0:
            raise ValueError(f"task {self.name!r}: negative PE index")


@dataclass(frozen=True)
class TimedEdge:
    """A precedence/synchronization constraint between two tasks."""

    src: str
    snk: str
    delay: int
    kind: str = EdgeKind.SYNC
    origin_edge: Optional[str] = None

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError(
                f"edge {self.src}->{self.snk}: negative delay {self.delay}"
            )
        if self.kind not in EdgeKind.ALL:
            raise ValueError(f"unknown edge kind {self.kind!r}")


@dataclass(eq=False, repr=False)
class TimedGraph:
    """A directed multigraph of tasks with delayed precedence edges, as
    columns.

    Vertex ``v`` is ``names[v]``, takes ``cycles[v]`` and runs on
    ``pe[v]`` as an invocation of ``origin[v]``; edge ``i`` runs from
    ``src[i]`` to ``snk[i]`` with ``delay[i]``, role ``kind[i]`` and
    ``origin_edge[i]``.  Every column is a Python list that nothing
    changes once built: :meth:`select` builds new edge columns over the
    same vertex columns, so the pre-ack graph, each compile's graph with
    its acks and the pruned graphs share what they have in common.
    """

    name: str
    names: List[str]
    cycles: List[int]
    pe: List[int]
    origin: List[Optional[str]]
    src: List[int]
    snk: List[int]
    delay: List[int]
    kind: List[str]
    origin_edge: List[Optional[str]]

    @classmethod
    def from_records(
        cls,
        name: str,
        vertices: Iterable[TimedVertex] = (),
        edges: Iterable[TimedEdge] = (),
    ) -> "TimedGraph":
        """The graph of ``vertices`` and ``edges``, in the order given."""
        vertices = list(vertices)
        index: Dict[str, int] = {}
        for v, vertex in enumerate(vertices):
            if vertex.name in index:
                raise ValueError(f"duplicate task name {vertex.name!r}")
            index[vertex.name] = v
        edges = list(edges)
        for edge in edges:
            for endpoint in (edge.src, edge.snk):
                if endpoint not in index:
                    raise ValueError(f"edge endpoint {endpoint!r} is not a task")
        return cls(
            name,
            [v.name for v in vertices],
            [v.cycles for v in vertices],
            [v.pe for v in vertices],
            [v.origin_actor for v in vertices],
            [index[e.src] for e in edges],
            [index[e.snk] for e in edges],
            [e.delay for e in edges],
            [e.kind for e in edges],
            [e.origin_edge for e in edges],
        )

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return len(self.src)

    @cached_property
    def index(self) -> Dict[str, int]:
        """Vertex id by name."""
        return {name: v for v, name in enumerate(self.names)}

    def rows(self) -> List[EdgeRow]:
        """Every edge as an :data:`EdgeRow`, in edge order."""
        return list(
            zip(self.src, self.snk, self.delay, self.kind, self.origin_edge)
        )

    def select(
        self, keep: Iterable[int], rows: Sequence[EdgeRow] = ()
    ) -> "TimedGraph":
        """The graph of edges ``keep``, in the order given: ids below
        ``m`` are this graph's edges, ``m + k`` is ``rows[k]``."""
        every = self.rows() + list(rows)
        columns = tuple(zip(*[every[i] for i in keep])) or ((),) * 5
        return TimedGraph(
            self.name, self.names, self.cycles, self.pe, self.origin,
            *map(list, columns),
        )

    def with_edges(self, rows: Sequence[EdgeRow]) -> "TimedGraph":
        """This graph with ``rows`` appended after its edges."""
        return self.select(range(self.m + len(rows)), rows) if rows else self

    @cached_property
    def out_edge_ids(self) -> List[List[int]]:
        """Out-edge ids of every vertex, in edge order."""
        out: List[List[int]] = [[] for _ in self.names]
        for eid, u in enumerate(self.src):
            out[u].append(eid)
        return out

    def zero_delay_cycle(self) -> List[int]:
        """Vertex ids of one zero-total-delay cycle, or [] when none
        exists (a depth-first search over the zero-delay edges, roots
        and successors in vertex and edge order)."""
        adjacency: List[List[int]] = [[] for _ in self.names]
        for u, v, d in zip(self.src, self.snk, self.delay):
            if d == 0:
                adjacency[u].append(v)
        state = [0] * len(adjacency)
        parent = [0] * len(adjacency)
        for root in range(len(adjacency)):
            if state[root]:
                continue
            stack = [(root, iter(adjacency[root]))]
            state[root] = 1
            while stack:
                node, successors = stack[-1]
                for nxt in successors:
                    mark = state[nxt]
                    if mark == 1:
                        # Back edge: unwind the cycle nxt -> ... -> node.
                        cycle = [node]
                        while cycle[-1] != nxt:
                            cycle.append(parent[cycle[-1]])
                        cycle.reverse()
                        return cycle
                    if mark == 0:
                        parent[nxt] = node
                        state[nxt] = 1
                        stack.append((nxt, iter(adjacency[nxt])))
                        break
                else:
                    state[node] = 2
                    stack.pop()
        return []

    # -- record views ----------------------------------------------------------

    @cached_property
    def vertices(self) -> Tuple[TimedVertex, ...]:
        return tuple(map(TimedVertex, self.names, self.cycles, self.pe, self.origin))

    @cached_property
    def edges(self) -> Tuple[TimedEdge, ...]:
        names = self.names
        return tuple(
            TimedEdge(names[s], names[k], d, kind, origin)
            for s, k, d, kind, origin in self.rows()
        )

    def out_edges(self, name: str) -> List[TimedEdge]:
        return [self.edges[i] for i in self.out_edge_ids[self.index[name]]]

    def in_edges(self, name: str) -> List[TimedEdge]:
        v = self.index[name]
        return [e for e, snk in zip(self.edges, self.snk) if snk == v]

    def edges_of_kind(self, *kinds: str) -> List[TimedEdge]:
        return [e for e in self.edges if e.kind in kinds]

    def tasks_on(self, pe: int) -> List[TimedVertex]:
        return [v for v in self.vertices if v.pe == pe]

    @property
    def pes(self) -> List[int]:
        return sorted(set(self.pe))

    def min_delay_paths(self) -> Dict[str, Dict[str, int]]:
        """All-pairs minimum path delay (Floyd–Warshall on edge delays).

        ``result[u][v]`` is the least total delay over directed paths
        ``u -> v``; missing entries mean "no path".  ``result[u][u]`` is 0
        (empty path) — callers that need cycles must go through an
        explicit outgoing edge first.  The dict reference that
        :func:`~repro.mapping.graph_arrays.min_delay_matrix` is checked
        against.
        """
        names = self.names
        dist: Dict[str, Dict[str, int]] = {u: {u: 0} for u in names}
        for s, k, d in zip(self.src, self.snk, self.delay):
            row = dist[names[s]]
            current = row.get(names[k])
            if current is None or d < current:
                row[names[k]] = d
        for k in names:
            row_k = dist[k]
            for i in names:
                via = dist[i].get(k)
                if via is None:
                    continue
                row_i = dist[i]
                for j, kj in row_k.items():
                    candidate = via + kj
                    current = row_i.get(j)
                    if current is None or candidate < current:
                        row_i[j] = candidate
        return dist

    def to_dot(self) -> str:
        styles = {
            EdgeKind.INTRA: "solid",
            EdgeKind.IPC: "bold",
            EdgeKind.SYNC: "dashed",
            EdgeKind.ACK: "dotted",
        }
        lines = [f'digraph "{self.name}" {{']
        for pe in self.pes:
            lines.append(f"  subgraph cluster_pe{pe} {{")
            lines.append(f'    label="PE{pe}";')
            for vertex in self.tasks_on(pe):
                lines.append(f'    "{vertex.name}";')
            lines.append("  }")
        for edge in self.edges:
            attrs = f'style={styles[edge.kind]}'
            if edge.delay:
                attrs += f', label="d={edge.delay}"'
            lines.append(f'  "{edge.src}" -> "{edge.snk}" [{attrs}];')
        lines.append("}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"TimedGraph({self.name!r}, tasks={self.n}, edges={self.m})"
