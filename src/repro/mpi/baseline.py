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
layers compile through :func:`repro.spi.library.lower` and build their
run-time tasks with :func:`repro.spi.actors.wire_tasks`; they differ
only in the send and receive tasks they plug in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.dataflow.graph import Actor, DataflowGraph, Edge, GraphError
from repro.mapping.partition import Partition
from repro.platform.clock import DEFAULT_CLOCK, ClockDomain
from repro.platform.fpga import ResourceVector, estimate_datapath, estimate_fifo
from repro.platform.interconnect import Interconnect, LinkSpec
from repro.platform.pe import ProcessingElement
from repro.platform.simulator import PESequencer, Simulator, Waitset
from repro.spi.actors import LocalFifo, payload_nbytes, wire_tasks
from repro.spi.library import Lowering, lower
from repro.spi.runtime import RunResult

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


def mpi_engine_cost() -> ResourceVector:
    """Fabric cost of one per-PE MPI engine (matching queues, envelope
    processing, datatype handling) — what a TMD-MPI-style implementation
    instantiates next to every processing element."""
    control = estimate_datapath(registers_bits=420, logic_lut4=640)
    queues = estimate_fifo(depth_bytes=4096)  # unexpected/posted queues
    return control + queues


class _MpiChannel:
    """Run-time state of one MPI point-to-point flow (one edge)."""

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
        self.arrived_data: Deque[tuple] = deque()  # (payload list, nbytes)
        self.arrived_rts: int = 0
        self.cts_pending: Deque[Callable[[], None]] = deque()
        #: a rendezvous receiver mid-handshake waiting for the payload
        self.data_pending: Deque[Callable[[], None]] = deque()
        self.unexpected_high_water = 0
        self.data_messages = 0
        self.control_messages = 0
        self.payload_bytes = 0
        self.envelope_bytes_total = 0
        #: woken when a message or RTS envelope lands (unblocks MPI_Recv)
        self.recv_waitset = Waitset(f"{edge.name}.mpi_recv")

    def deliver_data(self, payload: List, nbytes: int, envelope: int) -> None:
        self.arrived_data.append((payload, nbytes))
        self.data_messages += 1
        self.payload_bytes += nbytes
        self.envelope_bytes_total += envelope
        if len(self.arrived_data) > self.unexpected_high_water:
            self.unexpected_high_water = len(self.arrived_data)
        if self.data_pending:
            resume = self.data_pending.popleft()
            resume()
        self.recv_waitset.wake()

    def deliver_rts(self, envelope: int) -> None:
        self.arrived_rts += 1
        self.control_messages += 1
        self.envelope_bytes_total += envelope
        self.recv_waitset.wake()

    def deliver_cts(self, envelope: int) -> None:
        self.control_messages += 1
        self.envelope_bytes_total += envelope
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
        return len(self.in_fifo) >= self.rate

    def blocked_reason(self, now: int) -> Optional[str]:
        """Why this send cannot start (None when it can)."""
        if len(self.in_fifo) < self.rate:
            return (
                f"starved on {self.in_fifo.edge.name!r} "
                f"(has {len(self.in_fifo)}, needs {self.rate})"
            )
        return None

    def wait_on(self, now: int) -> List[Waitset]:
        """Waitsets of the resources currently blocking the guard."""
        if len(self.in_fifo) < self.rate:
            return [self.in_fifo.waitset]
        return []

    def _copy_cycles(self, nbytes: int) -> int:
        words = (nbytes + self.config.word_bytes - 1) // self.config.word_bytes
        return words * self.config.copy_cycles_per_word

    def start(self, now: int) -> Optional[int]:
        tokens = self.in_fifo.pop(self.rate)
        self._staged = tokens
        nbytes = payload_nbytes(tokens, self.in_fifo.edge.token_bytes)
        if not self.rendezvous:
            # Eager: envelope build + bounce-buffer copy, then the PE is
            # free; the library drains the buffer onto the link.
            return self.config.send_sw_cycles + self._copy_cycles(nbytes)
        # Rendezvous: the PE blocks through RTS -> CTS -> data injection.
        channel = self.branches[0][1]
        link = self.interconnect.link(channel.src_pe, channel.dst_pe)
        rts_cost = self.config.send_sw_cycles
        _, rts_arrival = link.reserve(
            now + rts_cost, self.config.envelope_bytes
        )
        sim = self.sim
        config = self.config

        def on_cts() -> None:
            inject_start = sim.now + self._copy_cycles(nbytes)
            _, data_arrival = link.reserve(
                inject_start, config.envelope_bytes + nbytes
            )
            payload = list(self._staged or [])

            def deliver() -> None:
                channel.deliver_data(payload, nbytes, config.envelope_bytes)

            sim.at(data_arrival, deliver)
            assert self.complete_async is not None
            # The sender unblocks once the payload has been injected.
            sim.at(inject_start, self.complete_async)

        def rts_arrive() -> None:
            channel.deliver_rts(config.envelope_bytes)
            channel.cts_pending.append(on_cts)

        sim.at(rts_arrival, rts_arrive)
        return None

    def finish(self, now: int) -> None:
        tokens = self._staged or []
        self._staged = None
        if self.rendezvous:
            return
        for fifo in self.local_branches:
            fifo.push(fifo.edge.connection.produced_tokens(fifo.edge, tokens))
        sim = self.sim
        envelope = self.config.envelope_bytes
        for member, channel in self.branches:
            part = (
                member.connection.produced_tokens(member, tokens)
                if self.collective
                else tokens
            )
            nbytes = payload_nbytes(part, channel.token_bytes)
            link = self.interconnect.link(channel.src_pe, channel.dst_pe)
            _, arrival = link.reserve(now, envelope + nbytes)

            def deliver(ch=channel, payload=part, size=nbytes) -> None:
                ch.deliver_data(payload, size, envelope)

            sim.at(arrival, deliver)


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

    def _copy_cycles(self, nbytes: int) -> int:
        words = (nbytes + self.config.word_bytes - 1) // self.config.word_bytes
        return words * self.config.copy_cycles_per_word

    def start(self, now: int) -> Optional[int]:
        if not self.channel.rendezvous:
            _, nbytes = self.channel.arrived_data[0]
            return self.config.match_cycles + self._copy_cycles(nbytes)
        # Rendezvous: match the RTS, return CTS, block until the data has
        # arrived and been copied out.
        self.channel.arrived_rts -= 1
        link = self.interconnect.link(self.channel.dst_pe, self.channel.src_pe)
        _, cts_arrival = link.reserve(
            now + self.config.match_cycles, self.config.envelope_bytes
        )
        channel = self.channel
        sim = self.sim

        def cts_arrive() -> None:
            channel.deliver_cts(self.config.envelope_bytes)

        sim.at(cts_arrival, cts_arrive)

        def data_ready() -> None:
            _, nbytes = channel.arrived_data[0]
            assert self.complete_async is not None
            sim.after(self._copy_cycles(nbytes), self.complete_async)

        # The payload lands strictly after the CTS round trip; register
        # for its delivery instead of polling the channel every cycle.
        if channel.arrived_data:
            data_ready()
        else:
            channel.data_pending.append(data_ready)
        return None

    def finish(self, now: int) -> None:
        payload, _ = self.channel.arrived_data.popleft()
        self.out_fifo.push(list(payload))


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
        if iterations < 1:
            raise GraphError("iterations must be >= 1")
        sim = Simulator(check_lost_wakeups=check_lost_wakeups)
        interconnect = Interconnect(default_spec=self.config.link_spec)

        channels: Dict[str, _MpiChannel] = {}
        for origin_name, (ipc_edge, pair, _) in self.insertion.channels.items():
            channels[origin_name] = _MpiChannel(
                edge=ipc_edge,
                src_pe=self.insertion.partition.assignment[pair.send],
                dst_pe=self.insertion.partition.assignment[pair.recv],
                token_bytes=ipc_edge.token_bytes,
                rendezvous=self.channel_modes[origin_name],
            )

        config = self.config

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

        tasks, fifos = wire_tasks(self.insertion, channels, send, recv)

        pes: List[ProcessingElement] = []
        sequencers: List[PESequencer] = []
        script = self.schedule.firing_script()
        for pe_index in range(self.partition.n_pes):
            entries = script.get(pe_index, [])
            if not entries:
                continue
            pe = ProcessingElement(pe_index)
            program = [tasks[origin] for _, origin in entries]
            sequencer = PESequencer(sim, pe, program, iterations)
            pes.append(pe)
            sequencers.append(sequencer)

        for sequencer in sequencers:
            sequencer.begin()
        final = sim.run(max_cycles=max_cycles)

        unfinished = [s for s in sequencers if not s.done]
        if unfinished:
            raise GraphError(
                f"MPI simulation ended with unfinished sequencers: "
                f"{[s.pe.name for s in unfinished]}"
            )

        data_messages = sum(c.data_messages for c in channels.values())
        control_messages = sum(c.control_messages for c in channels.values())
        payload_bytes = sum(c.payload_bytes for c in channels.values())
        envelope_bytes = sum(c.envelope_bytes_total for c in channels.values())

        if iterations >= 4 and sequencers:
            times = sequencers[0].finish_times
            period = (times[-1] - times[1]) / (len(times) - 2)
        else:
            period = final / iterations

        return RunResult(
            cycles=final,
            execution_time_us=self.config.clock.cycles_to_us(final),
            iterations=iterations,
            pe_stats=pes,
            data_messages=data_messages,
            ack_messages=control_messages,
            payload_bytes=payload_bytes,
            header_bytes=envelope_bytes,
            ack_bytes=0,
            buffer_high_water={
                name: c.unexpected_high_water for name, c in channels.items()
            },
            fifo_high_water={
                fifo.edge.name: fifo.high_water for fifo in fifos.values()
            },
            iteration_period_cycles=period,
        )

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
