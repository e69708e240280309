"""The SPI library: communication-actor insertion and protocol selection.

"For a given dataflow graph, SPI inserts a pair of special actors
(called SPI actors) for sending and receiving associated IPC data
whenever an edge exists between actors that are assigned to two
different processors" (paper §2).  This module performs that insertion
and the compile-time per-channel decisions:

* which SPI component handles the edge — **SPI_static** for edges whose
  traffic is fixed before run time, **SPI_dynamic** for VTS-converted
  edges (variable packed-token sizes);
* which buffer protocol the channel uses — **BBS** when the
  synchronization structure bounds the buffer (the eq. 2 feedback
  bound), **UBS** with an acknowledgment window otherwise.

The insertion is a pure graph transformation; the run-time behaviour of
the inserted actors lives in :mod:`repro.spi.actors`.  :func:`lower`
chains VTS conversion, insertion and self-timed scheduling into one
:class:`Lowering`: the compile front half that every SPI configuration
and the MPI baseline share.  Its :class:`WiringPlan` resolves, once per
lowering, which edges and channels each run-time task reads and writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Container, Dict, Optional, Tuple, Union

import numpy as np

from repro.dataflow.graph import (
    Actor,
    Connection,
    DataflowGraph,
    Edge,
    GraphError,
)
from repro.dataflow.vts import VtsConversion, vts_convert
from repro.mapping.graph_arrays import GraphArrays, min_delay_matrix
from repro.mapping.ipc_graph import build_ipc_graph
from repro.mapping.partition import Partition
from repro.mapping.selftimed import (
    SelfTimedSchedule,
    build_selftimed_schedule,
    max_feasible_batch,
)
from repro.mapping.sync_graph import SynchronizationGraph, derive_sync_graph
from repro.mapping.timed_graph import TimedGraph

__all__ = [
    "SpiActorNames",
    "CollectiveSendGroup",
    "SpiInsertion",
    "insert_spi_actors",
    "ComputeWiring",
    "SendWiring",
    "RecvWiring",
    "WiringPlan",
    "plan_wiring",
    "Lowering",
    "lower",
    "SEND_PREFIX",
    "RECV_PREFIX",
]

SEND_PREFIX = "spi_send"
RECV_PREFIX = "spi_recv"

#: cycles one SPI_send / SPI_receive firing spends on header handling
#: (assemble or decode one or two header words in hardware)
SEND_OVERHEAD_CYCLES = 2
RECV_OVERHEAD_CYCLES = 2
#: extra cycle for the size field of a dynamic header
DYNAMIC_HEADER_EXTRA_CYCLES = 1


@dataclass(frozen=True)
class SpiActorNames:
    """Names of the actor pair inserted for one interprocessor edge."""

    send: str
    recv: str


@dataclass(frozen=True)
class CollectiveSendGroup:
    """One producer-side collective (broadcast/scatter) send actor.

    The send actor fires **once** per producer firing and serves every
    branch of the connection: remote branches each own a member IPC edge
    (and a per-branch channel keyed by the original member edge name),
    local branches are delivered directly into their consumer FIFOs.
    The runtime turns this into a SEND op with a group key, which
    makes one shared-payload transport transfer per destination (or one
    bus transaction) instead of one send firing per branch.
    """

    name: str                 #: original connection name
    kind: str                 #: "broadcast" | "scatter"
    send_actor: str
    #: original member edge name per branch (branch order)
    origin_edges: Tuple[str, ...]
    #: origin edge names of the remote (channel-owning) branches
    remote_origins: Tuple[str, ...]


@dataclass
class SpiInsertion:
    """Result of inserting SPI actors into an application graph.

    Attributes
    ----------
    graph:
        The transformed graph: each cross-PE edge ``x -> y`` became
        ``x -> SPI_send -> SPI_recv -> y``; the middle edge is the IPC
        edge the channel will carry.
    partition:
        Extended partition covering the SPI actors (each inherits the
        PE of the dataflow actor it serves).
    channels:
        ``original edge name -> (ipc edge, SpiActorNames, dynamic?)``.
    """

    graph: DataflowGraph
    partition: Partition
    channels: Dict[str, Tuple[Edge, SpiActorNames, bool]] = field(
        default_factory=dict
    )
    #: send-actor name -> producer-side collective group (broadcast/scatter
    #: connections with at least one cross-PE branch)
    collective_sends: Dict[str, CollectiveSendGroup] = field(
        default_factory=dict
    )


def _send_cycles(payload_words: int, dynamic: bool) -> int:
    cycles = SEND_OVERHEAD_CYCLES + payload_words
    if dynamic:
        cycles += DYNAMIC_HEADER_EXTRA_CYCLES
    return cycles


def _recv_cycles(payload_words: int, dynamic: bool) -> int:
    cycles = RECV_OVERHEAD_CYCLES + payload_words
    if dynamic:
        cycles += DYNAMIC_HEADER_EXTRA_CYCLES
    return cycles


def insert_spi_actors(
    graph: DataflowGraph,
    partition: Partition,
    conversion: Optional[VtsConversion] = None,
    word_bytes: int = 4,
) -> SpiInsertion:
    """Insert an SPI_send/SPI_receive pair on every interprocessor edge.

    ``graph`` must be static (VTS-converted when the application had
    dynamic edges; pass the :class:`VtsConversion` so the inserted
    channels know which edges use the SPI_dynamic component).

    Rates of the inserted actors preserve message granularity: SPI_send
    fires once per producer firing (consuming and forwarding
    ``prod(e)`` tokens as one message) and SPI_receive fires once per
    message; the original edge delay moves to the receiver side
    (``SPI_recv -> y``), which is where initial tokens physically live
    in a distributed-memory implementation.
    """
    if graph.is_dynamic:
        raise GraphError(
            "insert_spi_actors needs a static graph; run vts_convert first"
        )
    converted_names = set(conversion.edge_info) if conversion is not None else set()

    new_graph = DataflowGraph(f"{graph.name}_spi")
    for actor in graph.actors:
        clone = new_graph.actor(
            actor.name,
            kernel=actor.kernel,
            cycles=actor.cycles,
            params=dict(actor.params),
        )
        for port in actor.ports:
            new_port = clone.add_port(
                type(port)(port.name, port.direction, port.rate, port.token_bytes)
            )
            if graph.is_interface_port(port):
                new_graph.mark_interface(new_port)

    assignment = dict(partition.assignment)
    channels: Dict[str, Tuple[Edge, SpiActorNames, bool]] = {}
    collective_sends: Dict[str, CollectiveSendGroup] = {}
    collective_edge_ids = {
        id(e)
        for conn in graph.connections
        if conn.is_collective
        for e in conn.edges
    }

    for index, edge in enumerate(graph.edges):
        if id(edge) in collective_edge_ids:
            continue
        src_pe = partition.assignment[edge.src_actor.name]
        dst_pe = partition.assignment[edge.snk_actor.name]
        new_src = new_graph.get_actor(edge.src_actor.name)
        new_snk = new_graph.get_actor(edge.snk_actor.name)
        if src_pe == dst_pe:
            local = new_graph.connect(
                (new_src, edge.source.name),
                (new_snk, edge.sink.name),
                delay=edge.delay,
                name=edge.name,
            )
            if edge.initial_tokens is not None:
                local.set_initial_tokens(edge.initial_tokens)
            continue

        rate = edge.source.rate
        cons = edge.sink.rate
        tok_bytes = edge.token_bytes
        dynamic = edge.name in converted_names
        payload_words = max(1, (rate * tok_bytes + word_bytes - 1) // word_bytes)

        send_name = f"{SEND_PREFIX}_{index}_{edge.src_actor.name}"
        recv_name = f"{RECV_PREFIX}_{index}_{edge.snk_actor.name}"
        send_actor = new_graph.actor(
            send_name,
            cycles=_send_cycles(payload_words, dynamic),
            params={"spi_role": "send", "origin_edge": edge.name,
                    "dynamic": dynamic},
        )
        recv_actor = new_graph.actor(
            recv_name,
            cycles=_recv_cycles(payload_words, dynamic),
            params={"spi_role": "recv", "origin_edge": edge.name,
                    "dynamic": dynamic},
        )
        send_actor.add_input("in", rate=rate, token_bytes=tok_bytes)
        send_actor.add_output("out", rate=rate, token_bytes=tok_bytes)
        recv_actor.add_input("in", rate=rate, token_bytes=tok_bytes)
        recv_actor.add_output("out", rate=rate, token_bytes=tok_bytes)

        new_graph.connect(
            (new_src, edge.source.name), (send_actor, "in"),
            name=f"{edge.name}.to_send",
        )
        ipc_edge = new_graph.connect(
            (send_actor, "out"), (recv_actor, "in"),
            name=f"{edge.name}.ipc",
        )
        delivered = new_graph.connect(
            (recv_actor, "out"), (new_snk, edge.sink.name),
            delay=edge.delay,
            name=f"{edge.name}.to_consumer",
        )
        if edge.initial_tokens is not None:
            delivered.set_initial_tokens(edge.initial_tokens)

        assignment[send_name] = src_pe
        assignment[recv_name] = dst_pe
        channels[edge.name] = (
            ipc_edge,
            SpiActorNames(send=send_name, recv=recv_name),
            dynamic,
        )

    for cidx, conn in enumerate(graph.connections):
        if not conn.is_collective:
            continue
        _insert_collective(
            new_graph,
            conn,
            cidx,
            partition,
            assignment,
            channels,
            collective_sends,
            word_bytes,
        )

    new_graph.validate()
    new_partition = Partition(new_graph, partition.n_pes, assignment)
    return SpiInsertion(
        graph=new_graph,
        partition=new_partition,
        channels=channels,
        collective_sends=collective_sends,
    )


def _scatter_span(edge: Edge) -> Optional[Tuple[int, int]]:
    """A scatter member edge's (start, stop) slice of its producer's
    output, or None when the edge carries the whole output."""
    connection = edge.connection
    if connection is not None and connection.kind == "scatter":
        return connection.branch_span(edge.branch_index)
    return None


def _branch_order(edges) -> list:
    return sorted(edges, key=lambda edge: edge.branch_index)


@dataclass(frozen=True)
class ComputeWiring:
    """Port tables of one computation actor over its same-PE edges.

    ``needs`` holds ``(port name, ((edge id, consumption rate), ...),
    connection)`` per connected input port and ``emits`` holds ``(port
    name, ((edge id, scatter span), ...))`` per connected output port,
    both in port order with branches in ``Edge.branch_index`` order.  A
    port owns several member edges when it is shared by a collective
    connection (gather/reduce sinks, all-local broadcast sources); a
    span is a scatter branch's ``(start, stop)`` slice of the producer's
    output, or None when the edge carries all of it.
    """

    needs: Tuple[Tuple[str, Tuple[Tuple[int, int], ...], object], ...]
    emits: Tuple[
        Tuple[str, Tuple[Tuple[int, Optional[Tuple[int, int]]], ...]], ...
    ]

    @classmethod
    def of(
        cls, graph: DataflowGraph, actor: Actor, local: Container[int]
    ) -> "ComputeWiring":
        """The tables of ``actor`` over the edges whose ids are in
        ``local`` (edges outside it, IPC edges, are not wired)."""
        inputs: Dict[str, list] = {}
        for edge in graph.in_edges(actor):
            if edge.edge_id in local:
                inputs.setdefault(edge.sink.name, []).append(edge)
        outputs: Dict[str, list] = {}
        for edge in graph.out_edges(actor):
            if edge.edge_id in local:
                outputs.setdefault(edge.source.name, []).append(edge)
        needs = []
        for port in actor.input_ports:
            if port.name in inputs:
                members = _branch_order(inputs[port.name])
                needs.append(
                    (
                        port.name,
                        tuple((e.edge_id, e.cons_rate) for e in members),
                        members[0].connection,
                    )
                )
        emits = tuple(
            (
                port.name,
                tuple(
                    (e.edge_id, _scatter_span(e))
                    for e in _branch_order(outputs[port.name])
                ),
            )
            for port in actor.output_ports
            if port.name in outputs
        )
        return cls(needs=tuple(needs), emits=emits)


@dataclass(frozen=True)
class SendWiring:
    """Edges and channels of one SPI_send actor.

    ``remote`` holds ``(ipc edge, channel origin name)`` per cross-PE
    branch and ``local`` the ids of the same-PE branch edges the send
    feeds directly, both in branch order; ``group`` is the producer-side
    collective the send serves, or None for a point-to-point send.
    """

    in_edge: int
    remote: Tuple[Tuple[Edge, str], ...]
    local: Tuple[int, ...]
    group: Optional[CollectiveSendGroup]


@dataclass(frozen=True)
class RecvWiring:
    """The channel (by origin edge name) and output edge of one
    SPI_receive actor."""

    origin: str
    out_edge: int


Wiring = Union[ComputeWiring, SendWiring, RecvWiring]


@dataclass(frozen=True)
class WiringPlan:
    """Which edges and channels every run-time task of a lowering uses.

    ``local_edges`` are the edges that get a
    :class:`~repro.spi.actors.LocalFifo` (every edge but the IPC edges,
    in graph order); ``actors`` pairs each actor of the SPI-inserted
    graph, in graph order, with its wiring — the wiring's type is the
    actor's kind.  The plan depends only on the insertion, so every run
    of every configuration compiled from one lowering shares it and
    only instantiates FIFOs, channels and tasks.
    """

    local_edges: Tuple[Edge, ...]
    actors: Tuple[Tuple[Actor, Wiring], ...]


def plan_wiring(insertion: SpiInsertion) -> WiringPlan:
    """Resolve the run-time wiring of every actor of ``insertion``."""
    graph = insertion.graph
    ipc_origin: Dict[int, str] = {}
    recv_origin: Dict[str, str] = {}
    send_actors = set()
    for origin, (ipc_edge, pair, _) in insertion.channels.items():
        ipc_origin[ipc_edge.edge_id] = origin
        recv_origin[pair.recv] = origin
        send_actors.add(pair.send)
    local_edges = tuple(
        edge for edge in graph.edges if edge.edge_id not in ipc_origin
    )
    local_ids = {edge.edge_id for edge in local_edges}
    actors = []
    for actor in graph.actors:
        wiring: Wiring
        if actor.name in send_actors:
            members = _branch_order(graph.out_edges(actor))
            wiring = SendWiring(
                in_edge=graph.in_edges(actor)[0].edge_id,
                remote=tuple(
                    (e, ipc_origin[e.edge_id])
                    for e in members
                    if e.edge_id not in local_ids
                ),
                local=tuple(e.edge_id for e in members if e.edge_id in local_ids),
                group=insertion.collective_sends.get(actor.name),
            )
        elif actor.name in recv_origin:
            wiring = RecvWiring(
                origin=recv_origin[actor.name],
                out_edge=graph.out_edges(actor)[0].edge_id,
            )
        else:
            wiring = ComputeWiring.of(graph, actor, local_ids)
        actors.append((actor, wiring))
    return WiringPlan(local_edges=local_edges, actors=tuple(actors))


@dataclass(frozen=True, eq=False)
class Lowering:
    """The compile front half of one graph on one assignment.

    Everything here depends only on the source graph, the actor-to-PE
    assignment and ``word_bytes``, never on the SPI configuration, so
    one lowering serves every :class:`~repro.spi.runtime.SpiConfig`
    compile and the MPI baseline compile of the same case.  Compiles
    only read it: each SPI compile copies :attr:`sync_graph` before
    adding its own ack edges.  The derived parts are built on first
    use and live as long as the lowering.
    """

    graph: DataflowGraph
    n_pes: int
    assignment: Dict[str, int]
    word_bytes: int
    conversion: Optional[VtsConversion]
    insertion: SpiInsertion
    schedule: SelfTimedSchedule
    _batches: Dict[int, int] = field(
        default_factory=dict, init=False, repr=False
    )

    @cached_property
    def ipc_graph(self) -> TimedGraph:
        """``G_ipc`` of the schedule, built on first use (MPI never asks)."""
        return build_ipc_graph(self.schedule)

    @cached_property
    def sync_graph(self) -> SynchronizationGraph:
        """The synchronization graph before any ack edge (paper §4.1);
        never mutated: each SPI compile adds its acks to a copy."""
        return derive_sync_graph(self.ipc_graph)

    @cached_property
    def min_delays(self) -> Tuple[Dict[str, int], np.ndarray]:
        """Vertex index and read-only min-delay matrix of :attr:`sync_graph`."""
        arrays = GraphArrays(self.sync_graph)
        rho = min_delay_matrix(
            arrays.n, arrays.edge_src, arrays.edge_snk, arrays.edge_delay
        )
        rho.setflags(write=False)
        return {name: i for i, name in enumerate(arrays.names)}, rho

    def feasible_batch(self, requested: int) -> int:
        """:func:`~repro.mapping.selftimed.max_feasible_batch` of the
        schedule, once per requested batch."""
        if requested not in self._batches:
            self._batches[requested] = max_feasible_batch(self.schedule, requested)
        return self._batches[requested]

    @cached_property
    def wiring(self) -> WiringPlan:
        """The run-time wiring of the insertion, resolved on first run."""
        return plan_wiring(self.insertion)

    @cached_property
    def fingerprint(self) -> Optional[str]:
        """The analysis cache's content fingerprint of :attr:`graph`
        (None without canonical content), computed on first use."""
        from repro.service.cache import graph_fingerprint

        return graph_fingerprint(self.graph)

    def check(
        self, graph: DataflowGraph, partition: Partition, word_bytes: int
    ) -> None:
        """Raise :class:`ValueError` unless this lowering fits the inputs."""
        if graph is not self.graph:
            raise ValueError(
                f"lowering belongs to graph {self.graph.name!r} "
                f"(id {id(self.graph):#x}), not to the compiled graph "
                f"{graph.name!r} (id {id(graph):#x})"
            )
        if partition.n_pes != self.n_pes:
            raise ValueError(
                f"lowering was built for {self.n_pes} PEs, the partition "
                f"has {partition.n_pes}"
            )
        if partition.assignment != self.assignment:
            moved = sorted(
                name
                for name in set(partition.assignment) | set(self.assignment)
                if partition.assignment.get(name) != self.assignment.get(name)
            )
            raise ValueError(
                f"lowering was built for a different assignment: actors "
                f"{moved} are mapped differently"
            )
        if word_bytes != self.word_bytes:
            raise ValueError(
                f"lowering was built for word_bytes={self.word_bytes}, the "
                f"config asks for word_bytes={word_bytes}"
            )


def lower(
    graph: DataflowGraph, partition: Partition, word_bytes: int = 4
) -> Lowering:
    """The compile front half shared by SPI and the MPI baseline.

    Validates ``graph``, VTS-converts it when it has dynamic-rate edges,
    inserts the SPI actor pairs on every interprocessor edge and builds
    the self-timed schedule of the result.  Only the assignment of
    ``partition`` matters here: PE classes and the batch request are
    read from the caller's partition at run time.
    """
    graph.validate()
    conversion: Optional[VtsConversion] = None
    static_graph = graph
    if graph.is_dynamic:
        conversion = vts_convert(graph)
        static_graph = conversion.graph
    assignment = dict(partition.assignment)
    insertion = insert_spi_actors(
        static_graph,
        Partition(static_graph, partition.n_pes, assignment),
        conversion=conversion,
        word_bytes=word_bytes,
    )
    schedule = build_selftimed_schedule(insertion.graph, insertion.partition)
    return Lowering(
        graph=graph,
        n_pes=partition.n_pes,
        assignment=assignment,
        word_bytes=word_bytes,
        conversion=conversion,
        insertion=insertion,
        schedule=schedule,
    )


def _clone_port_ref(new_graph: DataflowGraph, port) -> tuple:
    actor = new_graph.get_actor(port.actor.name)
    return (actor, port.name)


def _insert_collective(
    new_graph: DataflowGraph,
    conn: Connection,
    cidx: int,
    partition: Partition,
    assignment: Dict[str, int],
    channels: Dict[str, Tuple[Edge, SpiActorNames, bool]],
    collective_sends: Dict[str, CollectiveSendGroup],
    word_bytes: int,
) -> None:
    """Lower one collective connection into the SPI-inserted graph.

    Producer-side collectives (broadcast/scatter) get **one** send actor
    for the whole connection; each cross-PE branch gets its own receive
    actor and channel, local branches are fed directly by the send actor.
    Consumer-side collectives (gather/reduce) carry genuinely distinct
    per-branch payloads, so each cross-PE branch gets an ordinary
    send/receive pair and the member edges are regrouped into a
    gather/reduce connection at the consumer port (the consumer's
    firing task performs the concatenation/combination).
    """
    pe_of = partition.assignment
    branch_delays = [e.delay for e in conn.edges]
    branch_initial = [e.initial_tokens for e in conn.edges]

    if conn.kind in (Connection.BROADCAST, Connection.SCATTER):
        producer_port = conn.edges[0].source
        src_pe = pe_of[producer_port.actor.name]
        remote = [
            e for e in conn.edges if pe_of[e.snk_actor.name] != src_pe
        ]
        if not remote:
            # every consumer is local: replicate the connection as-is
            rebuilt = _rebuild_collective(new_graph, conn, branch_delays)
            for new_edge, initial in zip(rebuilt.edges, branch_initial):
                if initial is not None:
                    new_edge.set_initial_tokens(initial)
            return

        rate = producer_port.rate
        tok_bytes = producer_port.token_bytes
        payload_words = max(
            1, (rate * tok_bytes + word_bytes - 1) // word_bytes
        )
        send_name = f"{SEND_PREFIX}_c{cidx}_{producer_port.actor.name}"
        send_actor = new_graph.actor(
            send_name,
            cycles=_send_cycles(payload_words, False),
            params={
                "spi_role": "send",
                "origin_edge": conn.name,
                "dynamic": False,
                "collective": conn.kind,
            },
        )
        send_actor.add_input("in", rate=rate, token_bytes=tok_bytes)
        send_actor.add_output("out", rate=rate, token_bytes=tok_bytes)
        assignment[send_name] = src_pe
        new_graph.connect(
            _clone_port_ref(new_graph, producer_port),
            (send_actor, "in"),
            name=f"{conn.name}.to_send",
        )

        targets = []
        fan_delays = []
        recv_names: Dict[int, str] = {}
        for edge in conn.edges:
            dst_pe = pe_of[edge.snk_actor.name]
            branch_rate = edge.prod_rate
            branch_words = max(
                1, (branch_rate * tok_bytes + word_bytes - 1) // word_bytes
            )
            if dst_pe == src_pe:
                targets.append(_clone_port_ref(new_graph, edge.sink))
                fan_delays.append(edge.delay)
                continue
            recv_name = (
                f"{RECV_PREFIX}_c{cidx}_b{edge.branch_index}_"
                f"{edge.snk_actor.name}"
            )
            recv_actor = new_graph.actor(
                recv_name,
                cycles=_recv_cycles(branch_words, False),
                params={
                    "spi_role": "recv",
                    "origin_edge": edge.name,
                    "dynamic": False,
                    "collective": conn.kind,
                },
            )
            recv_actor.add_input(
                "in", rate=branch_rate, token_bytes=tok_bytes
            )
            recv_actor.add_output(
                "out", rate=branch_rate, token_bytes=tok_bytes
            )
            assignment[recv_name] = dst_pe
            recv_names[edge.branch_index] = recv_name
            targets.append((recv_actor, "in"))
            fan_delays.append(0)
            delivered = new_graph.connect(
                (recv_actor, "out"),
                _clone_port_ref(new_graph, edge.sink),
                delay=edge.delay,
                name=f"{edge.name}.to_consumer",
            )
            if edge.initial_tokens is not None:
                delivered.set_initial_tokens(edge.initial_tokens)

        if conn.kind == Connection.BROADCAST:
            fanout = new_graph.add_broadcast(
                (send_actor, "out"),
                targets,
                delays=fan_delays,
                name=f"{conn.name}.fanout",
            )
        else:
            fanout = new_graph.add_scatter(
                (send_actor, "out"),
                targets,
                chunks=list(conn.chunks) if conn.chunks else None,
                delays=fan_delays,
                name=f"{conn.name}.fanout",
            )
        remote_origins = []
        for member, edge in zip(fanout.edges, conn.edges):
            dst_pe = pe_of[edge.snk_actor.name]
            if dst_pe == src_pe:
                member.name = edge.name
                if edge.initial_tokens is not None:
                    member.set_initial_tokens(edge.initial_tokens)
                continue
            member.name = f"{edge.name}.ipc"
            channels[edge.name] = (
                member,
                SpiActorNames(
                    send=send_name, recv=recv_names[edge.branch_index]
                ),
                False,
            )
            remote_origins.append(edge.name)
        collective_sends[send_name] = CollectiveSendGroup(
            name=conn.name,
            kind=conn.kind,
            send_actor=send_name,
            origin_edges=tuple(e.name for e in conn.edges),
            remote_origins=tuple(remote_origins),
        )
        return

    # gather / reduce: per-branch point-to-point chains regrouped into a
    # consumer-side collective connection
    consumer_port = conn.edges[0].sink
    dst_pe = pe_of[consumer_port.actor.name]
    tok_bytes = consumer_port.token_bytes
    sources = []
    source_delays = []
    renames: Dict[int, str] = {}
    for edge in conn.edges:
        src_pe = pe_of[edge.src_actor.name]
        if src_pe == dst_pe:
            sources.append(_clone_port_ref(new_graph, edge.source))
            source_delays.append(edge.delay)
            renames[edge.branch_index] = edge.name
            continue
        rate = edge.source.rate
        branch_words = max(
            1, (rate * tok_bytes + word_bytes - 1) // word_bytes
        )
        send_name = (
            f"{SEND_PREFIX}_c{cidx}_b{edge.branch_index}_"
            f"{edge.src_actor.name}"
        )
        recv_name = (
            f"{RECV_PREFIX}_c{cidx}_b{edge.branch_index}_"
            f"{edge.snk_actor.name}"
        )
        send_actor = new_graph.actor(
            send_name,
            cycles=_send_cycles(branch_words, False),
            params={
                "spi_role": "send",
                "origin_edge": edge.name,
                "dynamic": False,
                "collective": conn.kind,
            },
        )
        recv_actor = new_graph.actor(
            recv_name,
            cycles=_recv_cycles(branch_words, False),
            params={
                "spi_role": "recv",
                "origin_edge": edge.name,
                "dynamic": False,
                "collective": conn.kind,
            },
        )
        send_actor.add_input("in", rate=rate, token_bytes=tok_bytes)
        send_actor.add_output("out", rate=rate, token_bytes=tok_bytes)
        recv_actor.add_input("in", rate=rate, token_bytes=tok_bytes)
        recv_actor.add_output("out", rate=rate, token_bytes=tok_bytes)
        assignment[send_name] = src_pe
        assignment[recv_name] = dst_pe
        new_graph.connect(
            _clone_port_ref(new_graph, edge.source),
            (send_actor, "in"),
            name=f"{edge.name}.to_send",
        )
        ipc_edge = new_graph.connect(
            (send_actor, "out"),
            (recv_actor, "in"),
            name=f"{edge.name}.ipc",
        )
        channels[edge.name] = (
            ipc_edge,
            SpiActorNames(send=send_name, recv=recv_name),
            False,
        )
        sources.append((recv_actor, "out"))
        source_delays.append(edge.delay)
        renames[edge.branch_index] = f"{edge.name}.to_consumer"

    sink_ref = _clone_port_ref(new_graph, consumer_port)
    if conn.kind == Connection.GATHER:
        regrouped = new_graph.add_gather(
            sources,
            sink_ref,
            chunks=list(conn.chunks) if conn.chunks else None,
            delays=source_delays,
            name=f"{conn.name}.assemble",
        )
    else:
        regrouped = new_graph.add_reduce(
            sources,
            sink_ref,
            combine=conn.combine,
            delays=source_delays,
            name=f"{conn.name}.assemble",
        )
    for member, edge, initial in zip(
        regrouped.edges, conn.edges, branch_initial
    ):
        member.name = renames[edge.branch_index]
        if initial is not None:
            member.set_initial_tokens(initial)


def _rebuild_collective(
    new_graph: DataflowGraph, conn: Connection, delays
) -> Connection:
    """Replicate an all-local collective connection onto cloned ports."""
    if conn.kind == Connection.BROADCAST:
        return new_graph.add_broadcast(
            _clone_port_ref(new_graph, conn.edges[0].source),
            [_clone_port_ref(new_graph, e.sink) for e in conn.edges],
            delays=delays,
            name=conn.name,
        )
    if conn.kind == Connection.SCATTER:
        return new_graph.add_scatter(
            _clone_port_ref(new_graph, conn.edges[0].source),
            [_clone_port_ref(new_graph, e.sink) for e in conn.edges],
            chunks=list(conn.chunks) if conn.chunks else None,
            delays=delays,
            name=conn.name,
        )
    if conn.kind == Connection.GATHER:
        return new_graph.add_gather(
            [_clone_port_ref(new_graph, e.source) for e in conn.edges],
            _clone_port_ref(new_graph, conn.edges[0].sink),
            chunks=list(conn.chunks) if conn.chunks else None,
            delays=delays,
            name=conn.name,
        )
    return new_graph.add_reduce(
        [_clone_port_ref(new_graph, e.source) for e in conn.edges],
        _clone_port_ref(new_graph, conn.edges[0].sink),
        combine=conn.combine,
        delays=delays,
        name=conn.name,
    )
