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
one harness, :func:`repro.spi.runtime.simulate` (platform, firing
programs, completion check, iteration period and totals); they differ
only in the channels, the data path and the costs of the send and
receive ops they plug in.  Every MPI transfer, envelope or payload,
goes on its link through :meth:`repro.platform.interconnect.Link.send`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Dict, Optional, Sequence

from repro.dataflow.graph import DataflowGraph, Edge
from repro.mapping.partition import Partition
from repro.platform.fpga import ResourceVector, estimate_datapath, estimate_fifo
from repro.platform.interconnect import Interconnect
from repro.platform.simulator import Simulator, Waitset
from repro.spi.actors import LocalFifo, recv_op, send_op
from repro.spi.channel import ChannelStats
from repro.spi.library import Lowering, lower
from repro.spi.message import payload_nbytes
from repro.spi.runtime import RunResult, simulate

__all__ = ["MpiConfig", "MpiSystem", "mpi_engine_cost"]


#: full MPI envelope: src, dst, tag, comm, datatype, count (6 words)
ENVELOPE_BYTES = 24
#: software send-path cost per message (argument checks, envelope
#: build, bounce-buffer copy setup)
SEND_SW_CYCLES = 30
#: receive-side queue matching per arriving message
MATCH_CYCLES = 40
#: per-word copy cost through the library's buffers
COPY_CYCLES_PER_WORD = 1


@dataclass(frozen=True)
class MpiConfig:
    """Cost parameters of the MPI-like baseline."""

    #: payload at or below this size goes eager; above, rendezvous
    eager_threshold_bytes: int = 256
    word_bytes: int = 4

    def copy_cycles(self, nbytes: int) -> int:
        """Cycles to copy ``nbytes`` through the library's buffers."""
        words = (nbytes + self.word_bytes - 1) // self.word_bytes
        return words * COPY_CYCLES_PER_WORD


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
    The library has no flow control (``flow`` is None): a send never
    waits for credit.
    """

    flow = None

    def __init__(
        self,
        edge: Edge,
        src_pe: int,
        dst_pe: int,
        token_bytes: int,
        rendezvous: bool,
        config: MpiConfig,
    ) -> None:
        self.edge = edge
        self.key = edge.name
        self.src_pe = src_pe
        self.dst_pe = dst_pe
        self.token_bytes = token_bytes
        self.rendezvous = rendezvous
        self.config = config
        self.arrived_data: Deque[tuple] = deque()  # (payload block, nbytes)
        self.arrived_rts: int = 0
        self.cts_pending: Deque[Callable[[], None]] = deque()
        #: a rendezvous receiver mid-handshake waiting for the payload
        self.data_pending: Deque[Callable[[], None]] = deque()
        self.buffer_high_water = 0
        self.stats = ChannelStats()
        #: woken when a message or RTS envelope lands (unblocks MPI_Recv)
        self.data_waitset = Waitset(f"{edge.name}.mpi_recv")
        self._sim: Optional[Simulator] = None
        self._interconnect: Optional[Interconnect] = None

    def attach(self, sim: Simulator, interconnect: Interconnect) -> None:
        """Bind the run whose links carry the handshake envelopes."""
        self._sim = sim
        self._interconnect = interconnect

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
        self.data_waitset.wake()

    def _deliver_control(self, envelope: int) -> None:
        self.stats.ack_messages += 1
        self.stats.header_bytes += envelope

    def deliver_rts(self, envelope: int) -> None:
        self.arrived_rts += 1
        self._deliver_control(envelope)
        self.data_waitset.wake()

    def deliver_cts(self, envelope: int) -> None:
        self._deliver_control(envelope)
        if self.cts_pending:
            resume = self.cts_pending.popleft()
            resume()

    def package(self, payload: Sequence):
        """An eager transfer of ``payload``: envelope plus payload bytes,
        and the callback that queues it at the receiver."""
        nbytes = payload_nbytes(payload, self.token_bytes)
        envelope = ENVELOPE_BYTES
        return envelope + nbytes, partial(
            self.deliver_data, payload, nbytes, envelope
        )

    def send_rendezvous(
        self, now: int, tokens: Sequence, nbytes: int, done: Callable[[], None]
    ) -> None:
        """Blocking MPI_Send: RTS -> CTS -> data injection; ``done``
        unblocks the sender once the payload has been injected."""
        config = self.config
        sim = self._sim
        link = self._interconnect.link(self.src_pe, self.dst_pe)
        envelope = ENVELOPE_BYTES

        def on_cts() -> None:
            inject_start = sim.now + config.copy_cycles(nbytes)
            link.send(
                sim, inject_start, envelope + nbytes,
                partial(self.deliver_data, tokens, nbytes, envelope),
                ("data", self.key),
            )
            sim.at(inject_start, done)

        def rts_arrive() -> None:
            self.deliver_rts(envelope)
            self.cts_pending.append(on_cts)

        link.send(
            sim, now + SEND_SW_CYCLES, envelope, rts_arrive,
            ("rts", self.key),
        )

    def receive_ready(self, n: int = 1) -> bool:
        """MPI_Recv guard: an RTS envelope (rendezvous) or a message."""
        if self.rendezvous:
            return self.arrived_rts > 0
        return len(self.arrived_data) >= n

    def receive_cost(self, now: int, done: Callable[[], None]) -> Optional[int]:
        """MPI_Recv: matching + copy-out of an eager message, or — on a
        rendezvous channel — match the RTS, return the CTS and block
        until the data has arrived and been copied out (then ``done``)."""
        config = self.config
        if not self.rendezvous:
            _, nbytes = self.arrived_data[0]
            return MATCH_CYCLES + config.copy_cycles(nbytes)
        self.arrived_rts -= 1
        sim = self._sim
        self._interconnect.link(self.dst_pe, self.src_pe).send(
            sim, now + MATCH_CYCLES, ENVELOPE_BYTES,
            partial(self.deliver_cts, ENVELOPE_BYTES),
            ("cts", self.key),
        )

        def data_ready() -> None:
            _, nbytes = self.arrived_data[0]
            sim.after(config.copy_cycles(nbytes), done)

        # The payload lands strictly after the CTS round trip; register
        # for its delivery instead of polling the channel every cycle.
        if self.arrived_data:
            data_ready()
        else:
            self.data_pending.append(data_ready)
        return None

    def receive_into(self, fifo: LocalFifo, now: int) -> None:
        payload, _ = self.arrived_data.popleft()
        fifo.push(payload)


class _MpiWire:
    """The MPI layer's data path: every transfer on its own link.

    A collective (MPI_Bcast / MPI_Scatter) is one library call serving
    every branch.  The library still knows nothing about the dataflow
    graph, but the collective API lets it amortize the *software* send
    path: one argument check plus one bounce-buffer copy of the root
    payload (one SEND op), then one eager envelope+payload injection
    per destination.  On the wire nothing is shared — a point-to-point
    MPI fabric still carries one full message per rank, which is exactly
    what the SPI shared-payload transport improves on.
    """

    def __init__(self, sim: Simulator, interconnect: Interconnect) -> None:
        self.sim = sim
        self.interconnect = interconnect

    def send(self, key, src_pe, dst_pe, nbytes, now, deliver) -> None:
        self.interconnect.link(src_pe, dst_pe).send(
            self.sim, now, nbytes, deliver, ("data", key)
        )

    def send_collective(self, group, src_pe, parts, now, shared) -> None:
        for key, dst_pe, nbytes, deliver in parts:
            self.send(key, src_pe, dst_pe, nbytes, now, deliver)


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
        config = self.config
        channels = {
            origin_name: _MpiChannel(
                edge=ipc_edge,
                src_pe=assignment[pair.send],
                dst_pe=assignment[pair.recv],
                token_bytes=ipc_edge.token_bytes,
                rendezvous=self.channel_modes[origin_name],
                config=config,
            )
            for origin_name, (ipc_edge, pair, _) in self.insertion.channels.items()
        }

        def factories(sim: Simulator, interconnect: Interconnect, counts):
            wire = _MpiWire(sim, interconnect)
            for channel in channels.values():
                channel.attach(sim, interconnect)

            def send(actor, branches, local, in_fifo, group):
                # Collectives are always eager: the root cannot block on
                # a rendezvous handshake with every rank inside one call.
                collective = group is not None
                channel = branches[0][1]
                token_bytes = in_fifo.edge.token_bytes
                rendezvous = not collective and channel.rendezvous

                def cost(now, tokens, done):
                    nbytes = payload_nbytes(tokens, token_bytes)
                    if rendezvous:
                        channel.send_rendezvous(now, tokens, nbytes, done)
                        return None
                    # Eager: envelope build + bounce-buffer copy, then the
                    # PE is free; the library drains the buffer onto the link.
                    return SEND_SW_CYCLES + config.copy_cycles(nbytes)

                return send_op(
                    actor,
                    branches,
                    local,
                    in_fifo,
                    wire,
                    group=group.name if collective else None,
                    name=actor.name.replace(
                        "spi_send", "mpi_coll" if collective else "mpi_send"
                    ),
                    cost=cost,
                    rendezvous=rendezvous,
                )

            def recv(actor, channel, out_fifo):
                return recv_op(
                    actor,
                    channel,
                    out_fifo,
                    name=actor.name.replace("spi_recv", "mpi_recv"),
                    cost=channel.receive_cost,
                )

            return send, recv

        result, _ = simulate(
            self,
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
