"""Generic MPI-like message passing — the baseline SPI is measured against.

The paper's motivation (§1): MPI is portable but "cannot leverage
optimizations obtained by exploiting characteristics specific to this
application domain".  This module models a faithful software-style MPI
point-to-point layer on the same platform simulator, with the costs a
general-purpose implementation (e.g. TMD-MPI on FPGA, which the paper
cites) cannot avoid:

* a full **envelope** on every message — source rank, destination rank,
  tag, communicator, datatype, count — because the library cannot know
  at compile time what the application will send;
* receive-side **matching** of every arriving message against the
  posted-receive queue;
* the **eager / rendezvous** split: small messages are copied through
  bounce buffers (extra copy cost), large messages pay a
  request-to-send / clear-to-send round trip while both endpoints block;
* no dataflow knowledge: no static buffer bounds (so no BBS), no
  resynchronization (every transfer carries its full synchronization).

The same application graph, partition and self-timed schedule are used
as for SPI — the comparison isolates the communication layer.  Both
layers compile through :func:`repro.spi.library.lower` and run through
one harness, :func:`repro.spi.runtime.simulate` (platform, task wiring,
PE programs, completion check, iteration period and totals); they
differ only in the channels and the send and receive tasks they plug
in.  Every MPI transfer, envelope or payload, goes on its link through
:meth:`repro.platform.interconnect.Link.send`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.dataflow.graph import Actor, DataflowGraph, Edge
from repro.mapping.partition import Partition
from repro.platform.clock import DEFAULT_CLOCK, ClockDomain
from repro.platform.fpga import ResourceVector, estimate_datapath, estimate_fifo
from repro.platform.interconnect import Interconnect, LinkSpec
from repro.platform.simulator import Simulator, Waitset
from repro.spi.actors import LocalFifo, payload_nbytes
from repro.spi.channel import ChannelStats
from repro.spi.library import Lowering, lower
from repro.spi.runtime import RunResult, simulate

__all__ = ["MpiConfig", "MpiSystem", "mpi_engine_cost"]


@dataclass(frozen=True)
class MpiConfig:
    """Cost parameters of the MPI-like baseline."""

    clock: ClockDomain = DEFAULT_CLOCK
    link_spec: LinkSpec = field(default_factory=LinkSpec)
    #: full MPI envelope: src, dst, tag, comm, datatype, count (6 words)
    envelope_bytes: int = 24
    #: payload at or below this size goes eager; above, rendezvous
    eager_threshold_bytes: int = 256
    #: software send-path cost per message (argument checks, envelope
    #: build, bounce-buffer copy setup)
    send_sw_cycles: int = 30
    #: receive-side queue matching per arriving message
    match_cycles: int = 40
    #: per-word copy cost through the library's buffers
    copy_cycles_per_word: int = 1
    word_bytes: int = 4

    def copy_cycles(self, nbytes: int) -> int:
        """Cycles to copy ``nbytes`` through the library's buffers."""
        words = (nbytes + self.word_bytes - 1) // self.word_bytes
        return words * self.copy_cycles_per_word


def mpi_engine_cost() -> ResourceVector:
    """Fabric cost of one per-PE MPI engine (matching queues, envelope
    processing, datatype handling) — what a TMD-MPI-style implementation
    instantiates next to every processing element."""
    control = estimate_datapath(registers_bits=420, logic_lut4=640)
    queues = estimate_fifo(depth_bytes=4096)  # unexpected/posted queues
    return control + queues


class _MpiChannel:
    """Run-time state of one MPI point-to-point flow (one edge).

    ``stats`` counts data messages and payload bytes, RTS/CTS envelopes
    as ``ack_messages``, and every envelope as ``header_bytes``;
    ``buffer_high_water`` is the unexpected-queue peak in messages.
    """

    def __init__(
        self,
        edge: Edge,
        src_pe: int,
        dst_pe: int,
        token_bytes: int,
        rendezvous: bool,
    ) -> None:
        self.edge = edge
        self.src_pe = src_pe
        self.dst_pe = dst_pe
        self.token_bytes = token_bytes
        self.rendezvous = rendezvous
        self.arrived_data: Deque[tuple] = deque()  # (payload block, nbytes)
        self.arrived_rts: int = 0
        self.cts_pending: Deque[Callable[[], None]] = deque()
        #: a rendezvous receiver mid-handshake waiting for the payload
        self.data_pending: Deque[Callable[[], None]] = deque()
        self.buffer_high_water = 0
        self.stats = ChannelStats()
        #: woken when a message or RTS envelope lands (unblocks MPI_Recv)
        self.recv_waitset = Waitset(f"{edge.name}.mpi_recv")

    def deliver_data(self, payload: Sequence, nbytes: int, envelope: int) -> None:
        self.arrived_data.append((payload, nbytes))
        self.stats.data_messages += 1
        self.stats.data_bytes += nbytes
        self.stats.header_bytes += envelope
        if len(self.arrived_data) > self.buffer_high_water:
            self.buffer_high_water = len(self.arrived_data)
        if self.data_pending:
            resume = self.data_pending.popleft()
            resume()
        self.recv_waitset.wake()

    def _deliver_control(self, envelope: int) -> None:
        self.stats.ack_messages += 1
        self.stats.header_bytes += envelope

    def deliver_rts(self, envelope: int) -> None:
        self.arrived_rts += 1
        self._deliver_control(envelope)
        self.recv_waitset.wake()

    def deliver_cts(self, envelope: int) -> None:
        self._deliver_control(envelope)
        if self.cts_pending:
            resume = self.cts_pending.popleft()
            resume()


class _MpiSendTask:
    """MPI_Send, or MPI_Bcast / MPI_Scatter for a collective send actor.

    ``branches`` lists ``(ipc edge, _MpiChannel)`` per remote branch and
    ``local_branches`` the consumer FIFOs of same-PE branches.  A
    point-to-point send has one branch and sends its tokens unsliced,
    eager (buffered) or — on a rendezvous channel — through a blocking
    RTS/CTS handshake.

    A collective send is one library call serving every branch.  The
    library still knows nothing about the dataflow graph, but the
    collective API lets it amortize the *software* send path: one
    argument check plus one bounce-buffer copy of the root payload,
    then one eager envelope+payload injection per destination.  On the
    wire nothing is shared — a point-to-point MPI fabric still carries
    one full message per rank, which is exactly what the SPI
    shared-payload transport improves on.  Collectives are always
    eager: the root cannot block on a rendezvous handshake with every
    rank inside one call.
    """

    def __init__(
        self,
        actor: Actor,
        branches: List[tuple],
        local_branches: List[LocalFifo],
        in_fifo: LocalFifo,
        sim: Simulator,
        interconnect: Interconnect,
        config: MpiConfig,
        collective: bool = False,
    ) -> None:
        self.actor = actor
        self.name = actor.name.replace(
            "spi_send", "mpi_coll" if collective else "mpi_send"
        )
        self.collective = collective
        #: (ipc edge, _MpiChannel) per remote branch, in branch order
        self.branches = sorted(
            branches, key=lambda item: item[0].branch_index
        )
        self.local_branches = sorted(
            local_branches, key=lambda fifo: fifo.edge.branch_index
        )
        self.in_fifo = in_fifo
        self.sim = sim
        self.interconnect = interconnect
        self.config = config
        self.rate = actor.port("in").rate
        #: only a point-to-point send on a rendezvous channel handshakes
        self.rendezvous = not collective and self.branches[0][1].rendezvous
        self.complete_async: Optional[Callable[[], None]] = None
        self._staged: Optional[List] = None

    def ready(self, now: int) -> bool:
        return self.in_fifo.count >= self.rate

    def blocked_reason(self, now: int) -> Optional[str]:
        """Why this send cannot start (None when it can)."""
        if self.in_fifo.count < self.rate:
            return (
                f"starved on {self.in_fifo.edge.name!r} "
                f"(has {self.in_fifo.count}, needs {self.rate})"
            )
        return None

    def wait_on(self, now: int) -> List[Waitset]:
        """Waitsets of the resources currently blocking the guard."""
        if self.in_fifo.count < self.rate:
            return [self.in_fifo.waitset]
        return []

    def start(self, now: int) -> Optional[int]:
        tokens = self.in_fifo.pop(self.rate)
        self._staged = tokens
        nbytes = payload_nbytes(tokens, self.in_fifo.edge.token_bytes)
        config = self.config
        if not self.rendezvous:
            # Eager: envelope build + bounce-buffer copy, then the PE is
            # free; the library drains the buffer onto the link.
            return config.send_sw_cycles + config.copy_cycles(nbytes)
        # Rendezvous: the PE blocks through RTS -> CTS -> data injection.
        channel = self.branches[0][1]
        link = self.interconnect.link(channel.src_pe, channel.dst_pe)
        sim = self.sim
        envelope = config.envelope_bytes

        def on_cts() -> None:
            inject_start = sim.now + config.copy_cycles(nbytes)
            link.send(
                sim, inject_start, envelope + nbytes,
                lambda: channel.deliver_data(tokens, nbytes, envelope),
                ("data", channel.edge.name),
            )
            assert self.complete_async is not None
            # The sender unblocks once the payload has been injected.
            sim.at(inject_start, self.complete_async)

        def rts_arrive() -> None:
            channel.deliver_rts(envelope)
            channel.cts_pending.append(on_cts)

        link.send(
            sim, now + config.send_sw_cycles, envelope, rts_arrive,
            ("rts", channel.edge.name),
        )
        return None

    def finish(self, now: int) -> None:
        tokens = self._staged
        self._staged = None
        if self.rendezvous:
            return
        for fifo in self.local_branches:
            fifo.push(fifo.edge.connection.produced_tokens(fifo.edge, tokens))
        envelope = self.config.envelope_bytes
        for member, channel in self.branches:
            part = (
                member.connection.produced_tokens(member, tokens)
                if self.collective
                else tokens
            )
            nbytes = payload_nbytes(part, channel.token_bytes)

            def deliver(ch=channel, payload=part, size=nbytes) -> None:
                ch.deliver_data(payload, size, envelope)

            self.interconnect.link(channel.src_pe, channel.dst_pe).send(
                self.sim, now, envelope + nbytes, deliver,
                ("data", channel.edge.name),
            )


class _MpiRecvTask:
    """MPI_Recv: matching + copy-out (eager) or CTS handshake (rendezvous)."""

    def __init__(
        self,
        actor: Actor,
        channel: _MpiChannel,
        out_fifo: LocalFifo,
        sim: Simulator,
        interconnect: Interconnect,
        config: MpiConfig,
    ) -> None:
        self.actor = actor
        self.name = actor.name.replace("spi_recv", "mpi_recv")
        self.channel = channel
        self.out_fifo = out_fifo
        self.sim = sim
        self.interconnect = interconnect
        self.config = config
        self.complete_async: Optional[Callable[[], None]] = None

    def ready(self, now: int) -> bool:
        if self.channel.rendezvous:
            return self.channel.arrived_rts > 0
        return bool(self.channel.arrived_data)

    def blocked_reason(self, now: int) -> Optional[str]:
        """Why this receive cannot start (None when it can)."""
        if not self.ready(now):
            kind = "RTS envelope" if self.channel.rendezvous else "message"
            return (
                f"waiting for a {kind} on channel "
                f"{self.channel.edge.name!r}"
            )
        return None

    def wait_on(self, now: int) -> List[Waitset]:
        """Waitsets of the resources currently blocking the guard."""
        return [self.channel.recv_waitset]

    def start(self, now: int) -> Optional[int]:
        channel = self.channel
        config = self.config
        if not channel.rendezvous:
            _, nbytes = channel.arrived_data[0]
            return config.match_cycles + config.copy_cycles(nbytes)
        # Rendezvous: match the RTS, return CTS, block until the data has
        # arrived and been copied out.
        channel.arrived_rts -= 1
        sim = self.sim
        self.interconnect.link(channel.dst_pe, channel.src_pe).send(
            sim, now + config.match_cycles, config.envelope_bytes,
            lambda: channel.deliver_cts(config.envelope_bytes),
            ("cts", channel.edge.name),
        )

        def data_ready() -> None:
            _, nbytes = channel.arrived_data[0]
            assert self.complete_async is not None
            sim.after(config.copy_cycles(nbytes), self.complete_async)

        # The payload lands strictly after the CTS round trip; register
        # for its delivery instead of polling the channel every cycle.
        if channel.arrived_data:
            data_ready()
        else:
            channel.data_pending.append(data_ready)
        return None

    def finish(self, now: int) -> None:
        payload, _ = self.channel.arrived_data.popleft()
        self.out_fifo.push(payload)


class MpiSystem:
    """The application compiled against the MPI-like baseline layer."""

    def __init__(
        self,
        source_graph: DataflowGraph,
        partition: Partition,
        config: MpiConfig,
        lowering: Lowering,
        channel_modes: Dict[str, bool],
    ) -> None:
        self.source_graph = source_graph
        self.partition = partition
        self.config = config
        self.lowering = lowering
        self.conversion = lowering.conversion
        self.insertion = lowering.insertion
        self.schedule = lowering.schedule
        #: origin edge name -> uses rendezvous?
        self.channel_modes = channel_modes

    @classmethod
    def compile(
        cls,
        graph: DataflowGraph,
        partition: Partition,
        config: Optional[MpiConfig] = None,
        lowering: Optional[Lowering] = None,
    ) -> "MpiSystem":
        """Compile ``graph`` + ``partition`` against the MPI-like layer.

        ``lowering`` is the shared front half, as for
        :meth:`repro.spi.runtime.SpiSystem.compile`; without one the
        compile lowers the graph itself.  The IPC graph of the lowering
        is never built here.
        """
        config = config or MpiConfig()
        if lowering is None:
            lowering = lower(graph, partition, config.word_bytes)
        else:
            lowering.check(graph, partition, config.word_bytes)
        insertion = lowering.insertion
        collective_origins = {
            origin
            for group in insertion.collective_sends.values()
            for origin in group.remote_origins
        }
        modes: Dict[str, bool] = {}
        for origin_name, (ipc_edge, _, _) in insertion.channels.items():
            payload = ipc_edge.prod_rate * ipc_edge.token_bytes
            # Collective branches are always eager: the root of an
            # MPI_Bcast cannot rendezvous with every rank in one call.
            modes[origin_name] = (
                payload > config.eager_threshold_bytes
                and origin_name not in collective_origins
            )
        return cls(
            source_graph=graph,
            partition=partition,
            config=config,
            lowering=lowering,
            channel_modes=modes,
        )

    def run(
        self,
        iterations: int = 1,
        max_cycles: Optional[int] = None,
        check_lost_wakeups: bool = False,
    ) -> RunResult:
        assignment = self.insertion.partition.assignment
        channels = {
            origin_name: _MpiChannel(
                edge=ipc_edge,
                src_pe=assignment[pair.send],
                dst_pe=assignment[pair.recv],
                token_bytes=ipc_edge.token_bytes,
                rendezvous=self.channel_modes[origin_name],
            )
            for origin_name, (ipc_edge, pair, _) in self.insertion.channels.items()
        }
        config = self.config

        def factories(sim: Simulator, interconnect: Interconnect):
            def send(actor, branches, local_branches, in_fifo, group):
                return _MpiSendTask(
                    actor,
                    branches,
                    local_branches,
                    in_fifo,
                    sim,
                    interconnect,
                    config,
                    collective=group is not None,
                )

            def recv(actor, channel, out_fifo):
                return _MpiRecvTask(
                    actor, channel, out_fifo, sim, interconnect, config
                )

            return send, recv, None

        result, _ = simulate(
            self,
            "MPI",
            iterations,
            channels,
            factories,
            max_cycles=max_cycles,
            check_lost_wakeups=check_lost_wakeups,
        )
        return result

    def library_resources(self) -> ResourceVector:
        """One MPI engine per PE that communicates."""
        engines = len(
            {
                pe
                for name, (_, pair, _) in self.insertion.channels.items()
                for pe in (
                    self.insertion.partition.assignment[pair.send],
                    self.insertion.partition.assignment[pair.recv],
                )
            }
        )
        return mpi_engine_cost().scale(engines)
