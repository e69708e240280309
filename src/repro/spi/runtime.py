"""The SPI system: compile a dataflow application, execute it, report.

:class:`SpiSystem` is the public entry point of the reproduction.  It
performs the whole SPI methodology in one ``compile`` call:

1. **VTS conversion** when the application graph has dynamic-rate edges
   (paper §3) — dynamic edges become SPI_dynamic channels;
2. **SPI actor insertion** on every interprocessor edge (paper §2);
3. **self-timed schedule** construction (paper §2);
4. **IPC / synchronization graph** derivation (paper §4.1);
5. **protocol selection** per channel: BBS when the synchronization
   structure bounds the buffer, else UBS with an ack window (paper §4);
6. **resynchronization**: redundant synchronization/acknowledgment
   edges are pruned; channels whose ack edge proved redundant run
   ack-free (paper §4.1);

and then executes the compiled system cycle-by-cycle on the platform
simulator (``run``), or prices it on the FPGA resource model
(``fpga_report``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.dataflow.graph import DataflowGraph, Edge, GraphError
from repro.mapping.graph_arrays import NO_PATH, insert_edge_min_delay
from repro.mapping.mcm import McmResult, maximum_cycle_mean_result
from repro.mapping.partition import Partition
from repro.mapping.resync import ResynchronizationResult, resynchronize
from repro.mapping.selftimed import SelfTimedSchedule
from repro.mapping.sync_graph import SynchronizationGraph
from repro.mapping.timed_graph import EdgeKind, TimedEdge
from repro.platform.clock import DEFAULT_CLOCK
from repro.platform.fpga import (
    FpgaDevice,
    ResourceVector,
    UtilizationReport,
    VIRTEX4_SX35,
)
from repro.platform.interconnect import Interconnect, LinkSpec
from repro.platform.pe import ProcessingElement
from repro.platform.simulator import INIT, Op, PESequencer, Simulator
from repro.platform.trace import TraceRecorder
from repro.spi import resources as spi_resources
from repro.spi.actors import (
    BatchSchedule,
    LocalFifo,
    SyncLayer,
    SyncTokenPool,
    init_op,
    recv_op,
    send_op,
    wire_ops,
)
from repro.spi.message import ACK_BYTES
from repro.spi.channel import SpiChannel
from repro.spi.library import Lowering, lower
from repro.spi.protocols import Protocol, ProtocolConfig

__all__ = [
    "SpiConfig", "ChannelPlan", "RunResult", "SimRun", "SpiSystem", "simulate",
]

#: timing of every link, for SPI and for the MPI baseline alike
LINK_SPEC = LinkSpec()
#: BBS is chosen only when the static bound is at most this many messages
MAX_BBS_MESSAGES = 1024
#: per-transfer arbitration cost of the shared bus
BUS_ARBITRATION_CYCLES = 2


@dataclass(frozen=True)
class SpiConfig:
    """Compile-time knobs of an SPI system."""

    #: apply resynchronization (redundant sync/ack pruning + additions)
    resynchronize: bool = True
    #: UBS acknowledgment window, in messages
    ubs_window: int = 4
    word_bytes: int = 4
    #: protocol policy: "auto" picks BBS whenever the synchronization
    #: structure bounds the buffer (paper §4); "always_ubs" forces the
    #: UBS protocol everywhere, which is how the resynchronization
    #: ablations expose acknowledgment traffic
    protocol_policy: str = "auto"
    #: data transport: "p2p" dedicated links (the SPI default),
    #: "shared_bus" FCFS-arbitrated single bus, "ordered_bus" the
    #: ordered-transaction model (grant order fixed at compile time).
    #: Control traffic (acks, resynchronization messages) always rides
    #: dedicated control links.
    transport: str = "p2p"

    def __post_init__(self) -> None:
        if self.protocol_policy not in ("auto", "always_ubs"):
            raise ValueError(
                f"unknown protocol_policy {self.protocol_policy!r}"
            )
        if self.ubs_window < 1:
            raise ValueError("ubs_window must be >= 1")
        if self.transport not in ("p2p", "shared_bus", "ordered_bus"):
            raise ValueError(f"unknown transport {self.transport!r}")


@dataclass
class ChannelPlan:
    """Compile-time decisions for one interprocessor edge."""

    origin_edge_name: str
    ipc_edge: Edge
    send_actor: str
    recv_actor: str
    src_pe: int
    dst_pe: int
    dynamic: bool
    protocol: str
    capacity_messages: int
    message_payload_bytes: int
    acks_enabled: bool

    @property
    def buffer_bytes(self) -> int:
        return self.capacity_messages * self.message_payload_bytes


@dataclass
class RunResult:
    """Everything observable from one simulated execution."""

    cycles: int
    execution_time_us: float
    iterations: int
    pe_stats: List[ProcessingElement]
    data_messages: int
    ack_messages: int
    payload_bytes: int
    header_bytes: int
    ack_bytes: int
    buffer_high_water: Dict[str, int]
    fifo_high_water: Dict[str, int]
    iteration_period_cycles: float
    #: zero-payload messages carrying *added* resynchronization edges
    resync_messages: int = 0
    resync_bytes: int = 0
    #: populated when ``run(..., trace=True)``: every task execution
    #: interval, renderable as a Gantt chart or CSV
    trace: Optional["TraceRecorder"] = None
    #: populated when ``run(..., metrics=True)``: the full metrics JSON
    #: document (see :mod:`repro.observability.exporters` for its schema)
    metrics: Optional[Dict] = None
    #: populated when ``run(..., metrics=True)``: every inter-PE message
    #: (data / ack / resync) with request, wire-start and arrival times
    message_log: Optional[List] = None
    #: steady-state detection/extrapolation report
    #: (:class:`repro.platform.steady_state.SteadyStateReport`; None
    #: when detection was not armed for this run)
    steady_state: Optional[object] = None
    #: wire transfers performed by collective (broadcast/scatter)
    #: connections — one per physical link use, not per consumer
    collective_messages: int = 0
    #: per-consumer deliveries those collective transfers fanned out to
    fan_out_deliveries: int = 0
    #: logical bytes (sum over consumers) minus wire bytes actually
    #: carried — the saving from sharing one payload per link
    wire_bytes_saved: int = 0
    #: effective global blocking factor of the run (1 = unbatched)
    batch: int = 1
    #: actor firings executed inside batched (burst > 1) dispatches
    batched_firings: int = 0
    #: batched dispatches issued across all PEs
    batch_dispatches: int = 0
    #: accelerator launch overhead amortized away by batching
    amortized_dispatch_cycles_saved: int = 0

    @property
    def steady_state_detected_at(self) -> Optional[int]:
        if self.steady_state is None:
            return None
        return self.steady_state.detected_at

    @property
    def extrapolated_iterations(self) -> int:
        if self.steady_state is None:
            return 0
        return self.steady_state.extrapolated_iterations

    @property
    def detected_period_iterations(self) -> Optional[int]:
        if self.steady_state is None:
            return None
        return self.steady_state.period_iterations

    @property
    def detected_period_cycles(self) -> Optional[int]:
        if self.steady_state is None:
            return None
        return self.steady_state.period_cycles

    @property
    def sync_messages(self) -> int:
        """Messages whose only job is synchronization: acknowledgments
        plus the messages of added resynchronization edges."""
        return self.ack_messages + self.resync_messages

    @property
    def overhead_bytes(self) -> int:
        return self.header_bytes + self.ack_bytes + self.resync_bytes

    @property
    def wire_bytes(self) -> int:
        return (
            self.payload_bytes
            + self.header_bytes
            + self.ack_bytes
            + self.resync_bytes
        )


@dataclass
class SimRun:
    """The platform and firing programs of one run built by :func:`simulate`."""

    sim: Simulator
    interconnect: Interconnect
    #: op record by actor name (:func:`~repro.spi.actors.wire_ops`)
    ops: Dict[str, Op]
    #: same-PE FIFO by edge id
    fifos: Dict[int, LocalFifo]
    #: steady-state tracker armed for the run, if any
    tracker: Optional[object] = None

    @property
    def sequencers(self) -> List[PESequencer]:
        """Every PE's sequencer, in PE order (the simulator's registry)."""
        return self.sim.sequencers


def simulate(
    system,
    iterations: int,
    channels: Dict[str, object],
    factories: Callable[[Simulator, Interconnect, Optional[List[int]]], Tuple],
    max_cycles: Optional[int] = None,
    check_lost_wakeups: bool = False,
    *,
    pes: Optional[Dict[int, ProcessingElement]] = None,
    batch: int = 1,
    trace: Optional[TraceRecorder] = None,
    init: bool = False,
    wrap: Optional[Callable[[SimRun], None]] = None,
    arm: Optional[Callable[[SimRun], object]] = None,
) -> Tuple[RunResult, SimRun]:
    """Build, run and total one simulated execution of a compiled system.

    Both communication layers run through here (:meth:`SpiSystem.run`
    and :meth:`repro.mpi.baseline.MpiSystem.run`), so the graph,
    partition, self-timed schedule, platform, completion check, period
    formula and totals are the same code and only the channels and the
    send and receive ops differ.

    ``system`` supplies ``lowering.wiring``, ``schedule`` and
    ``partition``; every run uses :data:`LINK_SPEC` links and the
    default clock.  ``channels`` maps each origin edge name to the
    layer's channel object, which counts its
    traffic in ``stats`` (a :class:`~repro.spi.channel.ChannelStats`)
    and reports its receive-side peak as ``buffer_high_water``.
    ``factories(sim, interconnect, counts)`` returns the ``(send,
    recv)`` op builders of :func:`~repro.spi.actors.wire_ops`;
    ``counts`` are the burst counts of a batched run (None unbatched).

    ``pes`` supplies the processing elements (default: one plain
    :class:`ProcessingElement` per PE with a program); ``batch`` is the
    blocking factor (each sequencer runs the macro-passes of a
    :class:`~repro.spi.actors.BatchSchedule`); ``trace`` records every
    dispatch interval; ``init`` starts every program with an SPI_init
    op.  ``wrap(run)`` may amend ``run.ops`` before the programs are
    built; ``arm(run)`` runs between building the sequencers and
    starting them and may return a steady-state tracker, whose
    extrapolated cycles count toward the makespan.

    A sequencer that cannot finish makes :meth:`Simulator.run` raise
    :class:`~repro.platform.SimulationDeadlock`.
    """
    if iterations < 1:
        raise GraphError("iterations must be >= 1")
    sim = Simulator(check_lost_wakeups=check_lost_wakeups)
    interconnect = Interconnect(default_spec=LINK_SPEC)
    plan = BatchSchedule(iterations, batch)
    counts = plan.counts if batch > 1 else None
    send, recv = factories(sim, interconnect, counts)
    ops, fifos = wire_ops(
        system.lowering.wiring, channels, send, recv, counts=counts
    )
    run = SimRun(sim, interconnect, ops, fifos)
    if wrap is not None:
        wrap(run)

    script = system.schedule.firing_script()
    used: List[ProcessingElement] = []
    for pe_index in range(system.partition.n_pes):
        entries = script.get(pe_index, [])
        if not entries:
            continue
        pe = pes[pe_index] if pes is not None else ProcessingElement(pe_index)
        program = [init_op(pe_index)] if init else []
        program.extend(run.ops[origin] for _, origin in entries)
        PESequencer(sim, pe, program, plan.passes, trace=trace)
        used.append(pe)
    if arm is not None:
        run.tracker = arm(run)

    for sequencer in run.sequencers:
        sequencer.begin()
    final = sim.run(max_cycles=max_cycles)

    extra_cycles = (
        run.tracker.report.extrapolated_cycles if run.tracker is not None else 0
    )
    total_cycles = final + extra_cycles
    if iterations >= 4 and run.sequencers and batch == 1:
        # Under a warp the simulated finish of the last (reduced)
        # iteration is the true finish of iteration ``iterations``
        # minus the extrapolated cycles, and ``finish_times[1]``
        # predates the warp — so the reconstruction below uses the
        # same integer operands as a fully interpreted run and the
        # float result is bit-identical.
        times = run.sequencers[0].finish_times
        period = (times[-1] + extra_cycles - times[1]) / (iterations - 2)
    else:
        # batched runs finish in macro-passes, not iterations, so the
        # per-iteration finish-time reconstruction above does not
        # apply — report the plain average
        period = total_cycles / iterations

    stats = [channel.stats for channel in channels.values()]
    result = RunResult(
        cycles=total_cycles,
        execution_time_us=DEFAULT_CLOCK.cycles_to_us(total_cycles),
        iterations=iterations,
        pe_stats=used,
        data_messages=sum(s.data_messages for s in stats),
        ack_messages=sum(s.ack_messages for s in stats),
        payload_bytes=sum(s.data_bytes for s in stats),
        header_bytes=sum(s.header_bytes for s in stats),
        ack_bytes=sum(s.ack_bytes for s in stats),
        buffer_high_water={
            name: channel.buffer_high_water
            for name, channel in channels.items()
        },
        fifo_high_water={
            fifo.edge.name: fifo.high_water for fifo in fifos.values()
        },
        iteration_period_cycles=period,
        batch=batch,
        batched_firings=sum(pe.batched_firings for pe in used),
        batch_dispatches=sum(pe.batch_dispatches for pe in used),
        amortized_dispatch_cycles_saved=sum(
            pe.amortized_dispatch_cycles_saved for pe in used
        ),
    )
    return result, run


class SpiSystem:
    """A compiled SPI application, ready to simulate or to price."""

    def __init__(
        self,
        source_graph: DataflowGraph,
        partition: Partition,
        config: SpiConfig,
        lowering: Lowering,
        sync_graph: SynchronizationGraph,
        channel_plans: Dict[str, ChannelPlan],
        resync_result: Optional[ResynchronizationResult],
        cache=None,
        analysis_key: Optional[str] = None,
        structure_key: Optional[str] = None,
        batch: int = 1,
    ) -> None:
        self.source_graph = source_graph
        self.partition = partition
        self.config = config
        self.lowering = lowering
        self.conversion = lowering.conversion
        self.insertion = lowering.insertion
        self.schedule = lowering.schedule
        self.sync_graph = sync_graph
        self.channel_plans = channel_plans
        self.resync_result = resync_result
        #: effective global blocking factor: the partition's requested
        #: batch clamped to what the schedule's token dependencies admit
        self.batch = batch
        #: optional :class:`repro.service.cache.AnalysisCache`
        self._analysis_cache = cache
        self._analysis_key = analysis_key
        self._structure_key = structure_key
        self._task_repetitions: Optional[Dict[str, int]] = None
        self._mcm_result: Optional[McmResult] = None

    # -- compilation -------------------------------------------------------

    @classmethod
    def compile(
        cls,
        graph: DataflowGraph,
        partition: Partition,
        config: Optional[SpiConfig] = None,
        cache=None,
        lowering: Optional[Lowering] = None,
    ) -> "SpiSystem":
        """Run the full SPI methodology on ``graph`` + ``partition``.

        ``cache`` is an optional content-addressed analysis cache (see
        :class:`repro.service.AnalysisCache`): repetitions vectors,
        channel-plan decisions, resynchronization solutions and the MCM
        bound are looked up by graph content instead of recomputed.
        Graphs without canonical content (callable cycle models) bypass
        it transparently.

        ``lowering`` is the front half (:func:`repro.spi.library.lower`)
        of this graph, assignment and ``config.word_bytes``, when the
        caller compiles the same case several times; without one the
        compile lowers the graph itself.  A lowering built for other
        inputs raises :class:`ValueError`.  What does not depend on
        ``config`` (the pre-ack synchronization graph, its min-delay
        matrix, the batch clamp) is computed once per lowering.
        """
        config = config or SpiConfig()
        if lowering is None:
            lowering = lower(graph, partition, config.word_bytes)
        else:
            lowering.check(graph, partition, config.word_bytes)
        schedule = lowering.schedule

        analysis_key = structure_key = None
        if cache is not None:
            analysis_key, structure_key = cache.keys_for(
                lowering.fingerprint, partition, config
            )

        sync_graph = lowering.sync_graph.copy()

        # Blocked (batched) execution: the partition's requested batch
        # (a no-op on all-gpp platforms) clamped to the largest blocking
        # factor the schedule's token dependencies admit — a feedback
        # loop with few delay tokens forces the clamp back to 1.
        batch = lowering.feasible_batch(partition.requested_batch)

        decisions = None
        if cache is not None:
            decisions = cache.channel_decisions(analysis_key)
        channel_plans = cls._plan_channels(
            lowering, config, decisions=decisions, batch=batch
        )

        # UBS channels synchronize backwards through ack edges; add them to
        # the synchronization graph so resynchronization can judge them.
        # Only single-invocation channels qualify: sync-graph delays
        # count iterations between the #0 invocations, so a multirate
        # window of W *messages* (M > 1 per iteration) has no faithful
        # iteration-granularity edge — any delay large enough to be
        # implied by the ack protocol is too large to safely license its
        # removal.  Those channels simply keep their acks.
        # A batched run macro-groups every PE's task executions, so the
        # iteration-granularity sync edges below (and the resync solver
        # that judges them) would misprice the burst: acks stay as the
        # protocol chose them and resynchronization is skipped entirely.
        acks: List[TimedEdge] = []
        for plan in channel_plans.values():
            if batch > 1:
                break
            if plan.protocol != Protocol.UBS:
                continue
            if schedule.repetitions[plan.send_actor] != 1:
                continue
            send_task, recv_task = cls._channel_tasks(
                schedule, plan.send_actor, plan.recv_actor
            )
            acks.append(
                sync_graph.add_edge(
                    TimedEdge(
                        src=recv_task,
                        snk=send_task,
                        delay=plan.capacity_messages,
                        kind=EdgeKind.ACK,
                        origin_edge=plan.origin_edge_name,
                    )
                )
            )
        judged_acks = {edge.origin_edge for edge in acks}

        resync_result: Optional[ResynchronizationResult] = None
        if config.resynchronize and batch == 1:
            # The pre-ack matrix plus one exact relaxation per ack edge
            # is the matrix of ``sync_graph``.
            index, rho = lowering.min_delays
            for edge in acks:
                rho = insert_edge_min_delay(
                    rho, index[edge.src], index[edge.snk], edge.delay
                )
            if cache is not None:
                resync_result = cache.resynchronize(
                    analysis_key, sync_graph, rho
                )
            else:
                resync_result = resynchronize(sync_graph, rho)
            surviving_acks = {
                e.origin_edge
                for e in resync_result.graph.edges
                if e.kind == EdgeKind.ACK
            }
            for plan in channel_plans.values():
                if (
                    plan.protocol == Protocol.UBS
                    and plan.origin_edge_name in judged_acks
                ):
                    plan.acks_enabled = plan.origin_edge_name in surviving_acks

        if cache is not None and decisions is None:
            # Store the *final* decisions (post-resync ack adjustment):
            # replaying them is only sound together with the cached
            # resynchronization solution, which shares this key.
            cache.store_channel_decisions(analysis_key, channel_plans)

        return cls(
            source_graph=graph,
            partition=partition,
            config=config,
            lowering=lowering,
            sync_graph=sync_graph,
            channel_plans=channel_plans,
            resync_result=resync_result,
            cache=cache,
            analysis_key=analysis_key,
            structure_key=structure_key,
            batch=batch,
        )

    @staticmethod
    def _channel_tasks(
        schedule: SelfTimedSchedule, send_actor: str, recv_actor: str
    ) -> Tuple[str, str]:
        """Task names of a channel's send/recv actors in the task graph.

        For multirate graphs the SPI actors expand into invocations; the
        ack-window constraint is attached between the first invocations
        (a conservative representative).
        """
        if send_actor in schedule.task_pe:
            return send_actor, recv_actor
        return f"{send_actor}#0", f"{recv_actor}#0"

    @classmethod
    def _plan_channels(
        cls,
        lowering: Lowering,
        config: SpiConfig,
        decisions: Optional[Dict[str, Dict[str, object]]] = None,
        batch: int = 1,
    ) -> Dict[str, ChannelPlan]:
        """Select protocol and capacity for every interprocessor edge.

        The BBS bound follows the feedback argument of paper eq. 2: the
        number of unconsumed messages on IPC edge ``e`` in self-timed
        execution never exceeds ``delay(e)`` plus the minimum total
        delay of a directed synchronization path from the receiver back
        to the sender (the path that throttles the sender).  When no
        such path exists — or the bound is impractically large — SPI
        falls back to UBS with an acknowledgment window.

        The feedback delays come from the lowering's pre-ack min-delay
        matrix (ack edges are added after planning).  ``decisions``
        replays previously cached per-channel decisions; channels
        missing from it (stale entry) fall back to the computed path.
        Each SPI_send invocation launches one message, so a channel
        carries the send actor's repetition count of messages per
        iteration.

        ``batch`` is the effective global blocking factor: a batched
        sender emits its whole burst before the receiver's batched
        accept frees a single slot, so every per-iteration term of the
        BBS bound scales by ``batch`` and the UBS ack window must admit
        at least one full burst.
        """
        insertion = lowering.insertion
        schedule = lowering.schedule
        plans: Dict[str, ChannelPlan] = {}
        for origin_name, (ipc_edge, pair, dynamic) in insertion.channels.items():
            cached = decisions.get(origin_name) if decisions is not None else None
            if cached is not None:
                protocol = cached["protocol"]
                capacity = cached["capacity_messages"]
                acks = cached["acks_enabled"]
            else:
                index, rho = lowering.min_delays
                send_task, recv_task = cls._channel_tasks(
                    schedule, pair.send, pair.recv
                )
                feedback = int(rho[index[recv_task], index[send_task]])
                if feedback >= NO_PATH:
                    feedback = None
                delay_msgs = ipc_edge.delay // max(1, ipc_edge.prod_rate)
                msgs_per_iter = schedule.repetitions[pair.send]
                if (
                    config.protocol_policy == "auto"
                    and feedback is not None
                    and 0
                    < batch * msgs_per_iter * (feedback + 1) + delay_msgs
                    <= MAX_BBS_MESSAGES
                ):
                    # Sync-graph delays count *iterations* between the #0
                    # invocations, while the bound counts *messages*: with
                    # a feedback of f iterations the sender can run f + 1
                    # iterations (of msgs_per_iter messages each) ahead of
                    # the receiver's oldest unfreed slot, plus the initial
                    # delay tokens.  The msgs_per_iter'th message of the
                    # newest iteration doubles as the in-process +1 slack
                    # (the message inside SPI_receive still occupies its
                    # slot); for single-rate channels the formula reduces
                    # to the familiar feedback + delay + 1.
                    protocol = Protocol.BBS
                    capacity = batch * msgs_per_iter * (feedback + 1) + delay_msgs
                    acks = False
                else:
                    protocol = Protocol.UBS
                    capacity = max(config.ubs_window, batch * msgs_per_iter)
                    acks = True
            plans[origin_name] = ChannelPlan(
                origin_edge_name=origin_name,
                ipc_edge=ipc_edge,
                send_actor=pair.send,
                recv_actor=pair.recv,
                src_pe=insertion.partition.assignment[pair.send],
                dst_pe=insertion.partition.assignment[pair.recv],
                dynamic=dynamic,
                protocol=protocol,
                capacity_messages=capacity,
                message_payload_bytes=ipc_edge.prod_rate * ipc_edge.token_bytes,
                acks_enabled=acks,
            )
        return plans

    # -- execution ----------------------------------------------------------

    def run(
        self,
        iterations: int = 1,
        max_cycles: Optional[int] = None,
        trace: bool = False,
        metrics: bool = False,
        check_lost_wakeups: bool = False,
        steady_state: str = "off",
    ) -> RunResult:
        """Simulate ``iterations`` graph iterations; returns the metrics.

        ``trace=True`` records every task execution interval into
        ``RunResult.trace`` (a :class:`TraceRecorder`) for Gantt/CSV
        inspection.  ``metrics=True`` additionally instruments the whole
        execution path (simulator kernel, transports, channels, sync
        pools) and fills ``RunResult.metrics`` with the validated
        metrics JSON document and ``RunResult.message_log`` with every
        inter-PE message — the inputs of the Chrome-trace and metrics
        exporters in :mod:`repro.observability`.

        ``check_lost_wakeups=True`` arms the kernel's lost-wakeup audit
        (used by the conformance oracles).

        ``steady_state`` controls periodic-phase extrapolation (see
        :mod:`repro.platform.steady_state`): ``"off"`` simulates every
        iteration; ``"auto"`` arms detection when the system is
        eligible — state-determined timing (see
        :meth:`steady_state_opaque_actors`), no trace capture, and a
        run long enough to possibly warp — and silently runs
        interpreted otherwise; ``"on"`` forces arming and raises
        :class:`GraphError` for ineligible systems.  A warp requires
        an exact kernel-state recurrence confirmed over a full second
        period with identical counter deltas, so makespan, per-channel
        traffic, occupancy high-water marks and the iteration period
        of an extrapolated run are bit-identical to the fully
        interpreted run.  Kernel-effort counters (events, parks,
        wakeups) and the message log cover only the actually-simulated
        prefix and tail.
        """
        if steady_state not in ("off", "auto", "on"):
            raise GraphError(f"unknown steady_state mode {steady_state!r}")
        arm_steady = False
        if steady_state == "on":
            if trace:
                raise GraphError(
                    "steady_state='on' cannot produce a full trace "
                    "(extrapolated iterations record no task intervals)"
                )
            if self.batch > 1:
                raise GraphError(
                    "steady_state='on' is incompatible with batched "
                    "execution (the tracker's kernel-state recurrence "
                    "is keyed to single-iteration passes)"
                )
            opaque = self.steady_state_opaque_actors()
            if opaque:
                raise GraphError(
                    "steady_state='on' requires state-determined timing; "
                    "these actors have data-dependent timing and do not "
                    f"declare params['timing_periodic']: {sorted(opaque)}"
                )
            arm_steady = True
        elif steady_state == "auto":
            arm_steady = (
                not trace
                and self.batch == 1
                and iterations >= 3
                and not self.steady_state_opaque_actors()
            )
        hub = None
        if metrics:
            from repro.observability import ObservabilityHub

            hub = ObservabilityHub()
        recorder = TraceRecorder() if trace else None

        channels: Dict[str, SpiChannel] = {}
        for plan in self.channel_plans.values():
            config = ProtocolConfig(
                protocol=plan.protocol,
                capacity_tokens=plan.capacity_messages,
                acks_enabled=plan.acks_enabled
                if plan.protocol == Protocol.UBS
                else False,
            )
            # One burst of physical slack: messages may arrive while
            # SPI_receive is still processing its predecessors (a
            # batched receive frees its bytes only at completion, so up
            # to ``batch`` messages are in process at once; batch is 1
            # for unbatched runs).
            capacity_bytes = (
                plan.capacity_messages + self.batch
            ) * plan.message_payload_bytes
            channels[plan.origin_edge_name] = SpiChannel(
                edge=plan.ipc_edge,
                src_pe=plan.src_pe,
                dst_pe=plan.dst_pe,
                config=config,
                dynamic=plan.dynamic,
                token_bytes=plan.ipc_edge.token_bytes,
                recv_capacity_bytes=capacity_bytes,
            )

        # Burst ops of a batched run charge their dispatches to the PE
        # objects built here (one per PE, with its class).
        pe_objects: Dict[int, ProcessingElement] = {
            pe_index: ProcessingElement(
                pe_index, pe_class=self.partition.pe_class_of(pe_index)
            )
            for pe_index in range(self.partition.n_pes)
        }
        transport = None
        sync_pools: List[SyncTokenPool] = []

        def factories(sim: Simulator, interconnect: Interconnect, counts):
            nonlocal transport
            transport = self._build_transport(sim, interconnect, observer=hub)
            for channel in channels.values():
                channel.attach(sim, interconnect, observer=hub)

            def send(actor, branches, local, in_fifo, group):
                return send_op(
                    actor,
                    branches,
                    local,
                    in_fifo,
                    transport,
                    group=f"{group.name}.collective" if group else None,
                    counts=counts,
                )

            def recv(actor, channel, out_fifo):
                return recv_op(actor, channel, out_fifo, counts=counts)

            return send, recv

        def wrap(run: SimRun) -> None:
            # Materialise the *added* resynchronization edges as run-time
            # sync-message channels (a counting semaphore fed by
            # zero-payload messages) layered on the endpoint ops.
            # Without this, disabling the acks those edges made redundant
            # would be unsound.
            if self.resync_result is None:
                return
            ops = run.ops
            task_reps = self.task_repetitions()
            table = self.schedule.task_table
            for added in self.resync_result.added:
                _, src_origin, src_phase, _ = table.tasks[table.index[added.src]]
                _, snk_origin, snk_phase, _ = table.tasks[table.index[added.snk]]
                src_pe = self.schedule.task_pe[added.src]
                snk_pe = self.schedule.task_pe[added.snk]
                pool = SyncTokenPool(
                    f"resync:{added.src}->{added.snk}", initial=added.delay
                )
                sync_pools.append(pool)
                link = run.interconnect.link(src_pe, snk_pe)
                SyncLayer.attach(
                    ops[src_origin],
                    SyncLayer(
                        notify=[(pool, link, ACK_BYTES)],
                        phase=src_phase,
                        period=task_reps[src_origin],
                        observer=hub,
                    ),
                )
                SyncLayer.attach(
                    ops[snk_origin],
                    SyncLayer(
                        guards=[pool],
                        phase=snk_phase,
                        period=task_reps[snk_origin],
                    ),
                )

        def arm(run: SimRun):
            if not (arm_steady and run.sequencers):
                return None
            return self._arm_steady_state(
                sim=run.sim,
                sequencers=run.sequencers,
                channels=channels,
                fifos=run.fifos,
                sync_pools=sync_pools,
                interconnect=run.interconnect,
                transport=transport,
                iterations=iterations,
            )

        result, run = simulate(
            self,
            iterations,
            channels,
            factories,
            max_cycles=max_cycles,
            check_lost_wakeups=check_lost_wakeups,
            pes=pe_objects,
            batch=self.batch,
            trace=recorder,
            init=True,
            wrap=wrap,
            arm=arm,
        )

        steady_report = run.tracker.report if run.tracker is not None else None
        if (
            steady_report is not None
            and steady_report.detected_at is not None
            and not steady_report.hint_used
        ):
            self._store_period_hint(steady_report)
        resync_messages = sum(p.messages_sent for p in sync_pools)
        result.resync_messages = resync_messages
        result.resync_bytes = ACK_BYTES * resync_messages
        result.trace = recorder
        result.steady_state = steady_report
        result.collective_messages = transport.collective_messages
        result.fan_out_deliveries = transport.fan_out_deliveries
        result.wire_bytes_saved = transport.wire_bytes_saved
        if hub is not None:
            from repro.observability import (
                build_metrics_document,
                validate_metrics,
            )

            result.message_log = list(hub.messages)
            result.metrics = build_metrics_document(
                self,
                result,
                hub,
                channels=channels,
                transport=transport,
                sim=run.sim,
                sync_pools=sync_pools,
            )
            validate_metrics(result.metrics)
        return result

    def _arm_steady_state(
        self,
        sim: Simulator,
        sequencers: List[PESequencer],
        channels: Dict[str, SpiChannel],
        fifos: Dict[int, "LocalFifo"],
        sync_pools: List[SyncTokenPool],
        interconnect: Interconnect,
        transport,
        iterations: int,
    ):
        """Wire a :class:`SteadyStateTracker` into this run.

        The probes must cover *everything* that influences any future
        event time or counter — see DESIGN.md §4e for the composition
        argument (in particular why in-flight UBS acks and
        resynchronization deposits are part of the hash).  The meters
        must cover every counter a skipped period would have advanced.
        """
        from repro.platform.steady_state import (
            AttrMeter,
            MapMeter,
            ObjectMapMeter,
            SteadyStateTracker,
        )

        ref = sequencers[0]
        sorted_channels = [
            (name, channels[name]) for name in sorted(channels)
        ]
        sorted_fifos = [fifos[k] for k in sorted(fifos)]

        # Sync layers and SPI_init ops hide modular / one-shot state
        # inside the per-PE programs; collect them once.
        layers: List[SyncLayer] = []
        inits: List[Op] = []
        seen_ids = set()
        for sequencer in sequencers:
            for op in sequencer.program:
                if id(op) in seen_ids:
                    continue
                seen_ids.add(id(op))
                layers.extend(op.sync or ())
                if op.kind == INIT:
                    inits.append(op)

        def sequencer_state(now: int):
            ref_iteration = ref.iteration
            return tuple(
                (
                    s.position,
                    s.iteration - ref_iteration,
                    s._running,
                    (s._busy_until - now)
                    if s._running and s._busy_until is not None
                    else -1,
                    s.parked,
                    s.wake_pending,
                    (now - s._blocked_since)
                    if s._blocked_since is not None
                    else -1,
                )
                for s in sequencers
            )

        def channel_state(now: int):
            return tuple(
                (
                    tuple(m.payload_bytes for m in ch.arrived),
                    ch.flow.credits if ch.flow.uses_credits else -1,
                    ch.recv_buffer.occupancy_bytes,
                )
                for _name, ch in sorted_channels
            )

        def fifo_state(now: int):
            return tuple(f.count for f in sorted_fifos)

        def pool_state(now: int):
            return tuple(p.tokens for p in sync_pools)

        def synced_state(now: int):
            return tuple(layer.count % layer.period for layer in layers)

        def init_state(now: int):
            return tuple(op.index > 0 for op in inits)

        def link_state(now: int):
            return tuple(
                sorted(
                    (link.src_pe, link.dst_pe, max(0, link.busy_until - now))
                    for link in interconnect.links
                )
            )

        def kernel_state(now: int):
            return (len(sim._wake_queue), sim._wake_scheduled)

        probes = [
            sequencer_state,
            channel_state,
            fifo_state,
            pool_state,
            synced_state,
            init_state,
            link_state,
            kernel_state,
            transport.capture_state,
        ]

        transport_fields = [
            "messages",
            "bytes",
            "collective_messages",
            "fan_out_deliveries",
            "wire_bytes_saved",
        ]
        if hasattr(transport, "fast_path_deliveries"):
            transport_fields.append("fast_path_deliveries")
        meters = []
        for sequencer in sequencers:
            pe = sequencer.pe
            meters.append(
                AttrMeter(
                    f"pe:{pe.index}",
                    pe,
                    ("busy_cycles", "firings", "blocked_events", "blocked_cycles"),
                )
            )
            meters.append(
                MapMeter(
                    f"pe:{pe.index}:blocked_by",
                    (lambda p=pe: p.blocked_by_task),
                )
            )
        for name, ch in sorted_channels:
            meters.append(
                AttrMeter(
                    f"channel:{name}",
                    ch.stats,
                    (
                        "data_messages",
                        "ack_messages",
                        "data_bytes",
                        "header_bytes",
                        "ack_bytes",
                    ),
                )
            )
            meters.append(
                AttrMeter(f"flow:{name}", ch.flow, ("sends", "acks_received"))
            )
        for pool in sync_pools:
            meters.append(
                AttrMeter(
                    f"pool:{pool.name}", pool, ("messages_sent",)
                )
            )
        meters.append(AttrMeter("transport", transport, transport_fields))
        meters.append(
            ObjectMapMeter(
                "transport:channel",
                lambda: sorted(
                    transport.per_channel.items(), key=lambda kv: str(kv[0])
                ),
                ("messages", "bytes", "queueing_cycles", "contention_cycles"),
            )
        )
        meters.append(
            ObjectMapMeter(
                "link",
                lambda: [
                    ((link.src_pe, link.dst_pe), link)
                    for link in interconnect.links
                ],
                ("bytes_carried", "messages_carried"),
            )
        )

        hint = None
        if self._analysis_cache is not None:
            hint = self._analysis_cache.period_hint(self._period_cache_key())

        tracker = SteadyStateTracker(
            sim=sim,
            sequencers=sequencers,
            probes=probes,
            meters=meters,
            target_iterations=iterations,
            hint=hint,
        )
        sim.state_probe = tracker
        ref.on_iteration = tracker.on_iteration_boundary
        return tracker

    def _period_cache_key(self) -> Optional[str]:
        """Content key for the cross-run period memo.

        Extends the analysis key with the *execution* knobs the analysis
        key deliberately omits — period cycles depend on the transport
        flavour and link timing, not just on the compile-time plans.
        """
        if self._analysis_key is None:
            return None
        import hashlib
        import json

        payload = json.dumps(
            {
                "analysis": self._analysis_key,
                "transport": self.config.transport,
                "bus_arbitration_cycles": BUS_ARBITRATION_CYCLES,
                "setup_cycles": LINK_SPEC.setup_cycles,
                "word_bytes": LINK_SPEC.word_bytes,
                "cycles_per_word": LINK_SPEC.cycles_per_word,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _store_period_hint(self, report) -> None:
        """Memoise a freshly confirmed period for future runs."""
        if self._analysis_cache is None:
            return
        self._analysis_cache.store_period(
            self._period_cache_key(),
            report.period_iterations,
            report.period_cycles,
        )

    def _build_transport(
        self, sim: Simulator, interconnect: Interconnect, observer=None
    ):
        """Instantiate the configured data transport for one run."""
        from repro.platform.transport import (
            OrderedBusTransport,
            PointToPointTransport,
            SharedBusTransport,
        )

        if self.config.transport == "p2p":
            return PointToPointTransport(sim, interconnect, observer=observer)
        if self.config.transport == "shared_bus":
            return SharedBusTransport(
                sim,
                spec=LINK_SPEC,
                arbitration_cycles=BUS_ARBITRATION_CYCLES,
                observer=observer,
            )
        return OrderedBusTransport(
            sim,
            order=self.transaction_order(),
            spec=LINK_SPEC,
            observer=observer,
        )

    def transaction_order(self) -> List[str]:
        """Compile-time bus-grant order for the ordered-transaction model.

        One entry (the channel's IPC edge name) per message per graph
        iteration, in the order the deterministic PASS fires the
        SPI_send actors — the same order the hardware's transaction
        controller would be programmed with.
        """
        from repro.dataflow.sdf import build_pass

        # A collective send actor fires once per group transfer: all of
        # its per-branch plans share ONE bus slot, keyed by the group.
        send_to_key = {
            plan.send_actor: (
                f"{self.insertion.collective_sends[plan.send_actor].name}"
                ".collective"
                if plan.send_actor in self.insertion.collective_sends
                else plan.ipc_edge.name
            )
            for plan in self.channel_plans.values()
        }
        order = [
            send_to_key[actor.name]
            for actor in build_pass(self.insertion.graph)
            if actor.name in send_to_key
        ]
        if not order:
            raise GraphError(
                "ordered-transaction transport needs at least one "
                "interprocessor channel"
            )
        return order

    # -- analysis -----------------------------------------------------------

    def steady_state_opaque_actors(self) -> List[str]:
        """Actors whose future timing the steady-state hash cannot see.

        The warp is exact only when every execution time and production
        volume is a function of the hashed kernel state.  An actor with
        integer cycles and static rates trivially qualifies.  An actor
        with a *callable* cycle model or :class:`DynamicRate` ports
        depends on token values (which the hash deliberately excludes),
        so it is opaque — unless it declares
        ``params["timing_periodic"] = True``, asserting that its
        execution times and production volumes are iteration-periodic
        (e.g. the LPC I/O interfaces, which cycle through a fixed frame
        list via ``firing_index % len(frames)``).  The particle filter
        makes no such declaration: its resampling exchange volumes
        depend on the evolving particle population, so it never warps.
        """
        opaque: List[str] = []
        for actor in self.source_graph.actors:
            if actor.params.get("timing_periodic"):
                continue
            if not isinstance(actor.cycles, int) or any(
                not isinstance(port.rate, int) for port in actor.ports
            ):
                opaque.append(actor.name)
        return opaque

    def task_repetitions(self) -> Dict[str, int]:
        """Repetitions vector of the SPI-inserted graph (memoised).

        The lowering's schedule already holds it (its task plan computed
        it for the PASS), so a cache miss copies that vector instead of
        solving the balance equations again.
        """
        if self._task_repetitions is None:

            def compute() -> Dict[str, int]:
                return dict(self.schedule.repetitions)

            if self._analysis_cache is not None:
                self._task_repetitions = self._analysis_cache.repetitions(
                    self._structure_key, compute
                )
            else:
                self._task_repetitions = compute()
        return self._task_repetitions

    def mcm_result(self) -> McmResult:
        """Exact MCM of the post-resynchronization synchronization graph.

        Memoised, and served from the :class:`AnalysisCache` when one is
        attached; the result carries the critical-cycle witness (task
        names, total execution cycles, total delay) alongside the bound.
        Cache entries written before the witness existed degrade to a
        witness-less result.  A resynchronization pass that computed the
        MCM of its result graph hands it over, so the bound and witness
        come from the same graph without a second Howard run.
        """
        if self._mcm_result is None:
            rr = self.resync_result

            def compute() -> McmResult:
                if rr is None:
                    return maximum_cycle_mean_result(self.sync_graph)
                if rr.mcm is not None:
                    return rr.mcm
                return maximum_cycle_mean_result(rr.graph)

            if self._analysis_cache is not None:
                self._mcm_result = self._analysis_cache.mcm(
                    self._analysis_key, compute
                )
            else:
                self._mcm_result = compute()
        return self._mcm_result

    def estimated_iteration_period_cycles(self) -> float:
        """MCM bound on the steady-state iteration period (memoised)."""
        return self.mcm_result().value

    def describe(self) -> str:
        """Human-readable compilation report.

        Everything the SPI methodology decided for this system: the
        per-PE self-timed orders, every channel's component
        (static/dynamic), protocol, capacity and ack status, and the
        resynchronization summary.
        """
        lines: List[str] = [
            f"SPI system: {self.source_graph.name!r} on "
            f"{self.partition.n_pes} PEs"
        ]
        if self.conversion is not None:
            converted = len(self.conversion.edge_info)
            lines.append(
                f"VTS conversion: {converted} dynamic edge(s) converted "
                f"to packed-token form"
            )
        if self.partition.has_accelerators or self.batch > 1:
            accel = sorted(
                pe
                for pe in range(self.partition.n_pes)
                if self.partition.pe_class_of(pe).is_accelerator
            )
            lines.append(
                f"heterogeneous platform: accelerator PE(s) "
                f"{accel if accel else 'none'}, blocking factor "
                f"{self.batch}"
                + (
                    f" (requested {self.partition.requested_batch})"
                    if self.batch != self.partition.requested_batch
                    else ""
                )
            )
        lines.append("self-timed schedule:")
        for pe in sorted(self.schedule.orders):
            order = self.schedule.orders[pe]
            if order:
                lines.append(f"  PE{pe}: {' -> '.join(order)}")
        if self.channel_plans:
            lines.append("interprocessor channels:")
            for name, plan in sorted(self.channel_plans.items()):
                flavour = "SPI_dynamic" if plan.dynamic else "SPI_static"
                acks = "acks on" if plan.acks_enabled else "ack-free"
                lines.append(
                    f"  {name}: PE{plan.src_pe}->PE{plan.dst_pe}, "
                    f"{flavour}, {plan.protocol} "
                    f"(capacity {plan.capacity_messages} msg, "
                    f"{plan.message_payload_bytes} B/msg, {acks})"
                )
        else:
            lines.append("interprocessor channels: none (single PE)")
        if self.resync_result is not None:
            rr = self.resync_result
            lines.append(
                f"resynchronization: {len(rr.removed)} sync/ack edge(s) "
                f"removed, {len(rr.added)} added; sync cost "
                f"{rr.cost_before} -> {rr.cost_after} per iteration"
            )
        result = self.mcm_result()
        lines.append(
            f"MCM bound on the iteration period: {result.value:.1f} cycles"
        )
        if result.cycle:
            lines.append(
                f"critical cycle: {' -> '.join(result.cycle)} "
                f"({result.total_cycles} cycles / "
                f"{result.total_delay} delay)"
            )
        return "\n".join(lines)

    # -- FPGA pricing ---------------------------------------------------------

    def spi_library_resources(self) -> ResourceVector:
        """Fabric cost of every SPI module in the compiled system."""
        total = ResourceVector()
        for plan in self.channel_plans.values():
            total = total + spi_resources.channel_cost(
                dynamic=plan.dynamic,
                buffer_bytes=plan.buffer_bytes,
                uses_acks=plan.acks_enabled,
            )
        for pe in self.partition.used_pes:
            total = total + spi_resources.init_module_cost()
        return total

    def computation_resources(self) -> ResourceVector:
        """Fabric cost of the application's computation actors.

        Actors declare their datapath cost in
        ``params["resources"]`` (a :class:`ResourceVector`); actors
        without one contribute nothing (e.g. purely structural models).
        """
        total = ResourceVector()
        for actor in self.source_graph.actors:
            vector = actor.params.get("resources")
            if vector is not None:
                total = total + vector
        return total

    def fpga_report(
        self,
        device: FpgaDevice = VIRTEX4_SX35,
        title: str = "",
    ) -> UtilizationReport:
        """Tables 1/2 shape: full-system and SPI-relative utilisation."""
        spi = self.spi_library_resources()
        full = self.computation_resources() + spi
        return UtilizationReport(
            device=device,
            full_system=full,
            spi_library=spi,
            title=title,
        )
