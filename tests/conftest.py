"""Shared fixtures and graph builders: canonical graphs, app inputs.

The ``build_*`` functions are plain importable helpers (``tests`` is a
package: ``from tests.conftest import build_pipeline_graph``) so the
spi, mpi, mapping and integration suites share one set of canonical
pipelines instead of re-declaring them per module; the fixtures below
wrap them for tests that prefer injection.
"""

from __future__ import annotations

import pytest

from repro.dataflow import DataflowGraph, DynamicRate
from repro.mapping import (
    EdgeKind,
    Partition,
    TimedEdge,
    TimedGraph,
    TimedVertex,
)


def build_pipeline_graph(collect=None, cycles=(10, 20, 5)):
    """A -> B -> C with functional kernels (source, square, sink)."""
    graph = DataflowGraph("pipe")

    def src(k, inputs):
        return {"o": [k + 1]}

    def square(k, inputs):
        return {"o": [inputs["i"][0] ** 2]}

    def sink(k, inputs):
        if collect is not None:
            collect.append(inputs["i"][0])
        return {}

    a = graph.actor("A", kernel=src, cycles=cycles[0])
    b = graph.actor("B", kernel=square, cycles=cycles[1])
    c = graph.actor("C", kernel=sink, cycles=cycles[2])
    a.add_output("o")
    b.add_input("i")
    b.add_output("o")
    c.add_input("i")
    graph.connect((a, "o"), (b, "i"))
    graph.connect((b, "o"), (c, "i"))
    return graph


def build_payload_pipeline(payload_rate=1, token_bytes=4, cycles=(10, 20, 5)):
    """Structural A -> B -> C chain with adjustable message payloads.

    Returns ``(graph, partition)`` with the canonical A/C-on-PE0,
    B-on-PE1 placement (two interprocessor channels).
    """
    graph = DataflowGraph("pipe")
    a = graph.actor("A", cycles=cycles[0])
    b = graph.actor("B", cycles=cycles[1])
    c = graph.actor("C", cycles=cycles[2])
    a.add_output("o", rate=payload_rate, token_bytes=token_bytes)
    b.add_input("i", rate=payload_rate, token_bytes=token_bytes)
    b.add_output("o", rate=payload_rate, token_bytes=token_bytes)
    c.add_input("i", rate=payload_rate, token_bytes=token_bytes)
    graph.connect((a, "o"), (b, "i"))
    graph.connect((b, "o"), (c, "i"))
    partition = Partition.manual(graph, {"A": 0, "B": 1, "C": 0})
    return graph, partition


def build_sequenced_pipeline(n_hops: int, collect: list):
    """A chain of forwarding actors; the source numbers its tokens."""
    graph = DataflowGraph(f"seq{n_hops}")

    def src(k, inputs):
        return {"o": [k]}

    def forward(k, inputs):
        return {"o": list(inputs["i"])}

    def sink(k, inputs):
        collect.extend(inputs["i"])
        return {}

    previous = graph.actor("src", kernel=src, cycles=3)
    previous.add_output("o")
    for hop in range(n_hops):
        actor = graph.actor(f"hop{hop}", kernel=forward, cycles=5 + hop)
        actor.add_input("i")
        actor.add_output("o")
        graph.connect((previous, "o"), (actor, "i"))
        previous = actor
    sink_actor = graph.actor("snk", kernel=sink, cycles=2)
    sink_actor.add_input("i")
    graph.connect((previous, "o"), (sink_actor, "i"))
    return graph


class EditableGraph:
    """A synchronization graph as record lists that tests build and edit
    one vertex and one edge at a time (the program builds its graphs
    whole, as columns).  :meth:`freeze` checks the records and hands
    the program their :class:`~repro.mapping.timed_graph.TimedGraph`,
    which answers every query the lists do not."""

    def __init__(self, name="timed", vertices=(), edges=()):
        self.name = name
        self.vertices = list(vertices)
        self.edges = list(edges)

    def add_vertex(self, vertex):
        self.vertices.append(vertex)
        return vertex

    def add_edge(self, edge):
        self.edges.append(edge)
        return edge

    def remove_edge(self, edge):
        self.edges.remove(edge)

    def copy(self):
        return editable(self)

    def freeze(self):
        return TimedGraph.from_records(self.name, self.vertices, self.edges)

    def out_edges(self, name):
        return [e for e in self.edges if e.src == name]

    def __len__(self):
        return len(self.vertices)

    def __getattr__(self, attr):
        return getattr(self.freeze(), attr)


def editable(graph):
    """An :class:`EditableGraph` over the vertices and edges of ``graph``."""
    return EditableGraph(graph.name, graph.vertices, graph.edges)


def synchronization_edges(graph):
    """Edges that cost run-time synchronization: the cross-PE edges of a
    synchronizing kind (same-PE sequencing is program order)."""
    pe = {v.name: v.pe for v in graph.vertices}
    return [
        e
        for e in graph.edges
        if e.kind in EdgeKind.SYNCHRONIZING and pe[e.src] != pe[e.snk]
    ]


def sync_cost(graph):
    """Cross-PE synchronization operations per graph iteration, by the
    object-level definition the array routines are checked against."""
    return len(synchronization_edges(graph))


def build_random_timed_graph(rng, max_vertices=10, max_edges=24, max_delay=4):
    """Random single-PE timed graph: any shape, self-loops, parallel edges."""
    graph = EditableGraph("random")
    n = rng.randint(1, max_vertices)
    for i in range(n):
        graph.add_vertex(
            TimedVertex(f"v{i}", cycles=rng.randint(0, 9), pe=0)
        )
    for _ in range(rng.randint(0, max_edges)):
        graph.add_edge(
            TimedEdge(
                src=f"v{rng.randrange(n)}",
                snk=f"v{rng.randrange(n)}",
                delay=rng.randint(0, max_delay),
                kind=EdgeKind.SYNC,
            )
        )
    return graph.freeze()


def build_random_sync_graph(rng, trial):
    """Random live IPC ring over 3 PEs plus random sync/ack edges."""
    graph = EditableGraph(f"sync{trial}")
    n = rng.randint(3, 10)
    for i in range(n):
        graph.add_vertex(
            TimedVertex(f"v{i}", cycles=rng.randint(1, 6), pe=rng.randrange(3))
        )
    for i in range(n):
        graph.add_edge(
            TimedEdge(
                f"v{i}",
                f"v{(i + 1) % n}",
                delay=1 if i == n - 1 else rng.randint(0, 1),
                kind=EdgeKind.IPC,
            )
        )
    for _ in range(rng.randint(0, 12)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        graph.add_edge(
            TimedEdge(
                f"v{a}",
                f"v{b}",
                delay=rng.randint(0, 3),
                kind=rng.choice([EdgeKind.SYNC, EdgeKind.ACK]),
            )
        )
    return graph.freeze()


# -- the redundancy criterion by its definition ------------------------------


def is_redundant(graph, edge, rho=None):
    """True iff ``edge``'s constraint is implied by the rest of ``graph``.

    The object-level definition that :mod:`repro.mapping.resync`
    evaluates on arrays: some first hop ``e' != e`` out of ``edge.src``
    starts a path to ``edge.snk`` whose total delay is at most
    ``edge.delay``, so the edge never vouches for its own redundancy.
    ``rho`` may pass the graph's current ``min_delay_paths()`` table.
    """
    table = rho if rho is not None else graph.min_delay_paths()
    for first_hop in graph.out_edges(edge.src):
        if first_hop is edge:
            continue
        remainder = table[first_hop.snk].get(edge.snk)
        if remainder is not None and first_hop.delay + remainder <= edge.delay:
            return True
    return False


def redundant_edges(
    graph,
    kinds=(EdgeKind.SYNC, EdgeKind.ACK, EdgeKind.IPC),
    cross_pe_only=True,
):
    """All currently redundant edges of the given kinds (one table)."""
    rho = graph.min_delay_paths()
    pe = {v.name: v.pe for v in graph.vertices}
    return [
        edge
        for edge in graph.edges
        if edge.kind in kinds
        and not (cross_pe_only and pe[edge.src] == pe[edge.snk])
        and is_redundant(graph, edge, rho)
    ]


def prune_sync_graph(graph):
    """The pruning fixpoint of ``graph`` (editable or not): the pruned
    graph (editable), the removed edges of ``graph`` (the same records,
    in removal order) and the pruned graph's min-delay matrix."""
    from repro.mapping.resync import SyncGraphSnapshot

    pruned, removed, rho = SyncGraphSnapshot(editable(graph).freeze()).prune()
    return editable(pruned), [graph.edges[i] for i in removed], rho


@pytest.fixture
def pipeline_graph_factory():
    """Factory fixture over :func:`build_pipeline_graph`."""
    return build_pipeline_graph


@pytest.fixture
def payload_pipeline_factory():
    """Factory fixture over :func:`build_payload_pipeline`."""
    return build_payload_pipeline


@pytest.fixture
def chain_graph():
    """Homogeneous 3-actor chain A -> B -> C (all rates 1)."""
    graph = DataflowGraph("chain")
    a = graph.actor("A", cycles=10)
    b = graph.actor("B", cycles=20)
    c = graph.actor("C", cycles=5)
    a.add_output("o")
    b.add_input("i")
    b.add_output("o")
    c.add_input("i")
    graph.connect((a, "o"), (b, "i"))
    graph.connect((b, "o"), (c, "i"))
    graph.validate()
    return graph


@pytest.fixture
def multirate_graph():
    """Multirate chain: A(2) -> (3)B(1) -> (2)C, reps q = (3, 2, 1)."""
    graph = DataflowGraph("multirate")
    a = graph.actor("A", cycles=5)
    b = graph.actor("B", cycles=3)
    c = graph.actor("C", cycles=2)
    a.add_output("o", rate=2)
    b.add_input("i", rate=3)
    b.add_output("o", rate=1)
    c.add_input("i", rate=2)
    graph.connect((a, "o"), (b, "i"))
    graph.connect((b, "o"), (c, "i"))
    graph.validate()
    return graph


@pytest.fixture
def cyclic_graph():
    """Two-actor loop with one unit of delay (a well-formed feedback)."""
    graph = DataflowGraph("loop")
    a = graph.actor("A", cycles=4)
    b = graph.actor("B", cycles=6)
    a.add_input("i")
    a.add_output("o")
    b.add_input("i")
    b.add_output("o")
    graph.connect((a, "o"), (b, "i"))
    graph.connect((b, "o"), (a, "i"), delay=1)
    graph.validate()
    return graph


@pytest.fixture
def fig1_graph():
    """The paper's figure 1: A -> B with dynamic rates <=10 and <=8."""
    graph = DataflowGraph("fig1")
    a = graph.actor("A", cycles=1)
    b = graph.actor("B", cycles=1)
    a.add_output("o", rate=DynamicRate(10), token_bytes=2)
    b.add_input("i", rate=DynamicRate(8), token_bytes=2)
    graph.connect((a, "o"), (b, "i"))
    graph.validate()
    return graph


@pytest.fixture
def two_pe_partition(chain_graph):
    """A and C on PE0, B on PE1 — two interprocessor edges."""
    return Partition.manual(chain_graph, {"A": 0, "B": 1, "C": 0})


@pytest.fixture
def speech_frames():
    """Four 256-sample synthetic speech frames (session-stable seed)."""
    from repro.apps.lpc import frame_stream

    return frame_stream(total_samples=4 * 256, frame_size=256, seed=2008)


@pytest.fixture
def crack_setup():
    """Crack model plus a short simulated history (truth, observations)."""
    from repro.apps.particle_filter import (
        CrackGrowthModel,
        simulate_crack_history,
    )

    model = CrackGrowthModel()
    truth, observations = simulate_crack_history(model, steps=10, seed=7)
    return model, truth, observations
