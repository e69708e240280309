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
from typing import Container, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.dataflow.graph import (
    Actor,
    Connection,
    DataflowGraph,
    Edge,
    GraphError,
)
from repro.dataflow.vts import VtsConversion, vts_convert
from repro.mapping.graph_arrays import NO_PATH, min_delay_matrix
from repro.mapping.ipc_graph import build_ipc_graph
from repro.mapping.partition import Partition
from repro.mapping.selftimed import (
    SelfTimedSchedule,
    build_selftimed_schedule,
    max_feasible_batch,
)
from repro.mapping.sync_graph import derive_sync_graph
from repro.mapping.timed_graph import TimedGraph
from repro.platform.interconnect import LINK_SPEC

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
    "ChannelPlan",
    "Lowering",
    "lower",
    "SEND_PREFIX",
    "RECV_PREFIX",
]

SEND_PREFIX = "spi_send"
RECV_PREFIX = "spi_recv"

#: cycles one SPI_send / SPI_receive firing spends on header handling
#: (assemble or decode one or two header words in hardware)
HEADER_CYCLES = 2
#: extra cycle for the size field of a dynamic header
DYNAMIC_HEADER_EXTRA_CYCLES = 1


@dataclass(frozen=True)
class SpiActorNames:
    """Names of the actor pair inserted for one interprocessor edge."""

    send: str
    recv: str


@dataclass(frozen=True)
class CollectiveSendGroup:
    """One producer-side collective (broadcast) send actor.

    The send actor fires **once** per producer firing and serves every
    branch of the connection: remote branches each own a member IPC edge
    (and a per-branch channel keyed by the original member edge name),
    local branches are delivered directly into their consumer FIFOs.
    The runtime turns this into a SEND op with a group key, which
    makes one shared-payload transport transfer per destination (or one
    bus transaction) instead of one send firing per branch.
    """

    name: str                 #: original connection name
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
    #: send-actor name -> producer-side collective group (broadcast
    #: connections with at least one cross-PE branch)
    collective_sends: Dict[str, CollectiveSendGroup] = field(
        default_factory=dict
    )


def _spi_actor(
    graph: DataflowGraph,
    assignment: Dict[str, int],
    name: str,
    role: str,
    origin: str,
    pe: int,
    rate: int,
    token_bytes: int,
    dynamic: bool = False,
    collective: Optional[str] = None,
) -> Actor:
    """Add one SPI_send or SPI_receive actor on ``pe``.

    The actor forwards ``rate`` tokens per firing and costs the header
    handling plus one cycle per link word of the payload.
    """
    words = max(1, -(-rate * token_bytes // LINK_SPEC.word_bytes))
    cycles = HEADER_CYCLES + words
    if dynamic:
        cycles += DYNAMIC_HEADER_EXTRA_CYCLES
    params = {"spi_role": role, "origin_edge": origin, "dynamic": dynamic}
    if collective is not None:
        params["collective"] = collective
    actor = graph.actor(name, cycles=cycles, params=params)
    actor.add_input("in", rate=rate, token_bytes=token_bytes)
    actor.add_output("out", rate=rate, token_bytes=token_bytes)
    assignment[name] = pe
    return actor


def _clone_port_ref(new_graph: DataflowGraph, port) -> tuple:
    return (new_graph.get_actor(port.actor.name), port.name)


def _spi_pair(
    graph: DataflowGraph,
    assignment: Dict[str, int],
    channels: Dict[str, Tuple[Edge, SpiActorNames, bool]],
    edge: Edge,
    tag: str,
    dynamic: bool = False,
    collective: Optional[str] = None,
) -> Actor:
    """Carry cross-PE ``edge`` over a send/receive pair named by ``tag``.

    Adds ``producer -> send`` and the IPC edge ``send -> recv``,
    registers the channel under ``edge.name`` and returns the receive
    actor, whose ``out`` port the caller connects to the consumer.
    """
    names = SpiActorNames(
        send=f"{SEND_PREFIX}_{tag}_{edge.src_actor.name}",
        recv=f"{RECV_PREFIX}_{tag}_{edge.snk_actor.name}",
    )
    rate, token_bytes = edge.source.rate, edge.token_bytes
    send = _spi_actor(
        graph, assignment, names.send, "send", edge.name,
        assignment[edge.src_actor.name], rate, token_bytes, dynamic, collective,
    )
    recv = _spi_actor(
        graph, assignment, names.recv, "recv", edge.name,
        assignment[edge.snk_actor.name], rate, token_bytes, dynamic, collective,
    )
    graph.connect(
        _clone_port_ref(graph, edge.source), (send, "in"),
        name=f"{edge.name}.to_send",
    )
    ipc_edge = graph.connect(
        (send, "out"), (recv, "in"), name=f"{edge.name}.ipc"
    )
    channels[edge.name] = (ipc_edge, names, dynamic)
    return recv


def insert_spi_actors(
    graph: DataflowGraph,
    partition: Partition,
    conversion: Optional[VtsConversion] = None,
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
        if assignment[edge.src_actor.name] == assignment[edge.snk_actor.name]:
            source, name = _clone_port_ref(new_graph, edge.source), edge.name
        else:
            recv = _spi_pair(
                new_graph, assignment, channels, edge, str(index),
                dynamic=edge.name in converted_names,
            )
            source, name = (recv, "out"), f"{edge.name}.to_consumer"
        delivered = new_graph.connect(
            source, _clone_port_ref(new_graph, edge.sink),
            delay=edge.delay, name=name,
        )
        if edge.initial_tokens is not None:
            delivered.set_initial_tokens(edge.initial_tokens)

    for cidx, conn in enumerate(graph.connections):
        if conn.is_collective:
            _insert_collective(
                new_graph, conn, cidx, assignment, channels, collective_sends
            )

    new_graph.validate()
    new_partition = Partition(new_graph, partition.n_pes, assignment)
    return SpiInsertion(
        graph=new_graph,
        partition=new_partition,
        channels=channels,
        collective_sends=collective_sends,
    )


def _insert_collective(
    new_graph: DataflowGraph,
    conn: Connection,
    cidx: int,
    assignment: Dict[str, int],
    channels: Dict[str, Tuple[Edge, SpiActorNames, bool]],
    collective_sends: Dict[str, CollectiveSendGroup],
) -> None:
    """Lower one collective connection into the SPI-inserted graph.

    The connection is rebuilt around its shared *hub* port (the producer
    of a broadcast, the consumer of a gather) with one member per
    branch.  A broadcast whose consumers all sit on the hub's PE is
    copied as it is.  Otherwise a broadcast gets **one** send actor for
    the whole connection, which feeds local branches directly and each
    cross-PE branch through its own receive actor and channel; a
    gather's branches carry distinct payloads, so each cross-PE branch
    gets an ordinary send/receive pair whose receiver joins the gather
    at the consumer port (the consumer's firing task concatenates).
    """
    fan_out = conn.kind == Connection.BROADCAST
    hub = conn.edges[0].source if fan_out else conn.edges[0].sink
    hub_pe = assignment[hub.actor.name]
    hub_ref = _clone_port_ref(new_graph, hub)

    def far(edge: Edge):
        return edge.sink if fan_out else edge.source

    remote = [e for e in conn.edges if assignment[far(e).actor.name] != hub_pe]
    copied = fan_out and not remote
    if copied:
        name = conn.name
    else:
        name = f"{conn.name}.fanout" if fan_out else f"{conn.name}.assemble"
    send_name = None
    if fan_out and remote:
        send_name = f"{SEND_PREFIX}_c{cidx}_{hub.actor.name}"
        send = _spi_actor(
            new_graph, assignment, send_name, "send", conn.name, hub_pe,
            hub.rate, hub.token_bytes, collective=conn.kind,
        )
        new_graph.connect(hub_ref, (send, "in"), name=f"{conn.name}.to_send")
        hub_ref = (send, "out")

    #: (port, delay, member name or None for the default, initial tokens)
    members = []
    fan_recvs: Dict[str, str] = {}
    for edge in conn.edges:
        tag = f"c{cidx}_b{edge.branch_index}"
        if edge not in remote:
            members.append((
                _clone_port_ref(new_graph, far(edge)),
                edge.delay,
                None if copied else edge.name,
                edge.initial_tokens,
            ))
        elif fan_out:
            recv = _spi_actor(
                new_graph, assignment,
                f"{RECV_PREFIX}_{tag}_{edge.snk_actor.name}", "recv",
                edge.name, assignment[edge.snk_actor.name],
                hub.rate, hub.token_bytes, collective=conn.kind,
            )
            delivered = new_graph.connect(
                (recv, "out"), _clone_port_ref(new_graph, edge.sink),
                delay=edge.delay, name=f"{edge.name}.to_consumer",
            )
            if edge.initial_tokens is not None:
                delivered.set_initial_tokens(edge.initial_tokens)
            fan_recvs[edge.name] = recv.name
            members.append(((recv, "in"), 0, f"{edge.name}.ipc", None))
        else:
            recv = _spi_pair(
                new_graph, assignment, channels, edge, tag, collective=conn.kind
            )
            members.append((
                (recv, "out"),
                edge.delay,
                f"{edge.name}.to_consumer",
                edge.initial_tokens,
            ))

    ports, delays, names, initials = zip(*members)
    if fan_out:
        rebuilt = new_graph.add_broadcast(hub_ref, ports, delays=delays, name=name)
    else:
        rebuilt = new_graph.add_gather(
            ports, hub_ref, chunks=list(conn.chunks), delays=delays, name=name
        )
    for member, edge, member_name, initial in zip(
        rebuilt.edges, conn.edges, names, initials
    ):
        if member_name is not None:
            member.name = member_name
        if initial is not None:
            member.set_initial_tokens(initial)
        if edge.name in fan_recvs:
            channels[edge.name] = (
                member,
                SpiActorNames(send=send_name, recv=fan_recvs[edge.name]),
                False,
            )
    if send_name is not None:
        collective_sends[send_name] = CollectiveSendGroup(
            name=conn.name,
            remote_origins=tuple(e.name for e in remote),
        )


def _branch_order(edges) -> list:
    return sorted(edges, key=lambda edge: edge.branch_index)


def static_cycles(actor: Actor) -> Optional[int]:
    """A non-negative integer cycle model, or None for a callable one
    (negative integers are left to ``execution_cycles`` to reject)."""
    cycles = actor.cycles
    return cycles if isinstance(cycles, int) and cycles >= 0 else None


@dataclass(frozen=True)
class ComputeWiring:
    """The FIRE op tables of one computation actor, with edge ids for
    its same-PE fifos.

    ``guard`` holds ``(edge id, rate)`` per member edge of every
    connected input port; ``pops`` holds ``(port, edge id, rate, None,
    None)`` per input port with one member and ``(port, None, 0,
    ((edge id, rate), ...), connection)`` per port a collective
    connection shares (gather sinks); ``pushes`` holds ``(port, edge
    id)`` per member edge of every connected output port.  Ports come in
    port order and members in ``Edge.branch_index`` order, as
    :class:`~repro.platform.simulator.Op` reads them.  ``name`` is the
    op name and ``cycles`` the static cycle model (None when callable).
    """

    name: str
    cycles: Optional[int]
    guard: Tuple[Tuple[int, int], ...]
    pops: Tuple[tuple, ...]
    pushes: Tuple[Tuple[str, int], ...]

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
        guard, pops = [], []
        for port in actor.input_ports:
            if port.name not in inputs:
                continue
            members = tuple(
                (e.edge_id, e.cons_rate)
                for e in _branch_order(inputs[port.name])
            )
            guard.extend(members)
            if len(members) == 1:
                pops.append((port.name, members[0][0], members[0][1], None, None))
            else:
                pops.append(
                    (port.name, None, 0, members,
                     inputs[port.name][0].connection)
                )
        pushes = tuple(
            (port.name, e.edge_id)
            for port in actor.output_ports
            if port.name in outputs
            for e in _branch_order(outputs[port.name])
        )
        return cls(
            name=f"fire:{actor.name}",
            cycles=static_cycles(actor),
            guard=tuple(guard),
            pops=tuple(pops),
            pushes=pushes,
        )


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
    actor's kind; ``programs`` lists, per PE with tasks in PE order,
    ``(PE index, origin actor of each program entry)``.  The plan
    depends only on the lowering, so every run of every configuration
    compiled from one lowering shares it and only instantiates FIFOs,
    channels and op records.
    """

    local_edges: Tuple[Edge, ...]
    actors: Tuple[Tuple[Actor, Wiring], ...]
    programs: Tuple[Tuple[int, Tuple[str, ...]], ...]


def plan_wiring(
    insertion: SpiInsertion, script: Dict[int, List[Tuple[str, str]]]
) -> WiringPlan:
    """Resolve the run-time wiring of every actor of ``insertion`` and
    the per-PE programs of its firing ``script``
    (:meth:`~repro.mapping.selftimed.SelfTimedSchedule.firing_script`)."""
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
    programs = tuple(
        (pe, tuple(origin for _, origin in entries))
        for pe, entries in sorted(script.items())
        if entries
    )
    return WiringPlan(
        local_edges=local_edges, actors=tuple(actors), programs=programs
    )


@dataclass
class ChannelPlan:
    """One interprocessor channel: what the lowering fixes about it and
    what one compile decided for it.

    ``send_task``/``recv_task`` are the sync-graph vertex ids of the
    send and receive actors' first invocations, ``feedback`` the pre-ack
    minimum delay of a path from the receiver back to the sender (None
    without one) and ``messages`` the send actor's repetition count,
    the channel's messages per iteration.  The lowering's plans
    (:attr:`Lowering.channels`) leave ``protocol`` empty; each compile
    copies them with its protocol, capacity and ack decisions.
    """

    origin_edge_name: str
    ipc_edge: Edge
    send_actor: str
    recv_actor: str
    src_pe: int
    dst_pe: int
    dynamic: bool
    send_task: int
    recv_task: int
    feedback: Optional[int]
    messages: int
    protocol: str = ""
    capacity_messages: int = 0
    acks_enabled: bool = False

    @property
    def message_payload_bytes(self) -> int:
        return self.ipc_edge.prod_rate * self.ipc_edge.token_bytes

    @property
    def buffer_bytes(self) -> int:
        return self.capacity_messages * self.message_payload_bytes


@dataclass(frozen=True, eq=False)
class Lowering:
    """The compile front half of one graph on one assignment.

    Everything here depends only on the source graph and the actor-to-PE
    assignment, never on the SPI configuration, so
    one lowering serves every :class:`~repro.spi.runtime.SpiConfig`
    compile and the MPI baseline compile of the same case.  Compiles
    only read it: each SPI compile appends its ack edges to a copy of
    the columns of :attr:`sync_graph`.  The derived parts are built on
    first use and live as long as the lowering.
    """

    graph: DataflowGraph
    n_pes: int
    assignment: Dict[str, int]
    conversion: Optional[VtsConversion]
    insertion: SpiInsertion
    schedule: SelfTimedSchedule
    _batches: Dict[int, int] = field(
        default_factory=dict, init=False, repr=False
    )
    _key_parts: Dict[tuple, Tuple[str, str]] = field(
        default_factory=dict, init=False, repr=False
    )

    @cached_property
    def sync_graph(self) -> TimedGraph:
        """The synchronization graph before any ack edge (paper §4.1):
        ``G_ipc`` of the schedule under its sync name, whose vertex
        ``t`` is task ``t`` of the schedule's task table.  Built
        on first use (MPI never asks)."""
        return derive_sync_graph(build_ipc_graph(self.schedule))

    @cached_property
    def min_delays(self) -> np.ndarray:
        """The read-only min-delay matrix of :attr:`sync_graph`."""
        graph = self.sync_graph
        rho = min_delay_matrix(graph.n, graph.src, graph.snk, graph.delay)
        rho.setflags(write=False)
        return rho

    @cached_property
    def channels(self) -> Tuple[ChannelPlan, ...]:
        """The undecided :class:`ChannelPlan` of every insertion
        channel, in channel order."""
        schedule = self.schedule
        index = self.sync_graph.index
        rho = self.min_delays
        assignment = self.insertion.partition.assignment
        plans = []
        for origin, (ipc_edge, pair, dynamic) in self.insertion.channels.items():
            if pair.send in schedule.task_pe:
                send_task, recv_task = index[pair.send], index[pair.recv]
            else:
                # Multirate SPI actors expand into invocations; the
                # ack-window constraint is attached between the first
                # invocations (a conservative representative).
                send_task = index[f"{pair.send}#0"]
                recv_task = index[f"{pair.recv}#0"]
            feedback = int(rho[recv_task, send_task])
            plans.append(
                ChannelPlan(
                    origin_edge_name=origin,
                    ipc_edge=ipc_edge,
                    send_actor=pair.send,
                    recv_actor=pair.recv,
                    src_pe=assignment[pair.send],
                    dst_pe=assignment[pair.recv],
                    dynamic=dynamic,
                    send_task=send_task,
                    recv_task=recv_task,
                    feedback=feedback if feedback < NO_PATH else None,
                    messages=schedule.repetitions[pair.send],
                )
            )
        return tuple(plans)

    def feasible_batch(self, requested: int) -> int:
        """:func:`~repro.mapping.selftimed.max_feasible_batch` of the
        schedule, once per requested batch."""
        if requested not in self._batches:
            self._batches[requested] = max_feasible_batch(self.schedule, requested)
        return self._batches[requested]

    @cached_property
    def wiring(self) -> WiringPlan:
        """The run-time wiring of the insertion, resolved on first run."""
        return plan_wiring(self.insertion, self.schedule.firing_script())

    @cached_property
    def fingerprint(self) -> Optional[str]:
        """The analysis cache's content fingerprint of :attr:`graph`
        (None without canonical content), computed on first use."""
        from repro.service.cache import graph_fingerprint

        return graph_fingerprint(self.graph)

    def cache_keys(
        self, partition: Partition, config
    ) -> Tuple[Optional[str], Optional[str]]:
        """The analysis cache's ``(analysis key, structure key)`` of one
        compile (see :func:`repro.service.cache.analysis_key`): the
        partition content and the structure key are hashed once per
        lowering and platform (PE classes, batch request)."""
        from repro.service.cache import config_key, structure_parts

        if self.fingerprint is None:
            return None, None
        platform = (tuple(sorted(partition.pe_classes.items())), partition.batch_size)
        if platform not in self._key_parts:
            self._key_parts[platform] = structure_parts(self.fingerprint, partition)
        partition_json, structure = self._key_parts[platform]
        return config_key(self.fingerprint, partition_json, config), structure

    def check(self, graph: DataflowGraph, partition: Partition) -> None:
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


def lower(graph: DataflowGraph, partition: Partition) -> Lowering:
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
    )
    schedule = build_selftimed_schedule(insertion.graph, insertion.partition)
    return Lowering(
        graph=graph,
        n_pes=partition.n_pes,
        assignment=assignment,
        conversion=conversion,
        insertion=insertion,
        schedule=schedule,
    )
