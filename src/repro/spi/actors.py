"""Run-time SPI actors: the tasks the platform simulator executes.

The HDL SPI library of the paper consists of **SPI_init**, **SPI_send**
and **SPI_receive** modules in SPI_static and SPI_dynamic flavours; the
computation actors of the application are entirely separate ("these
special modules ensure that the communication part of a system is
completely separated from the computation part").  This module provides
the behavioural models of all of them as :class:`~repro.platform
.simulator.Task` implementations, plus the :class:`LocalFifo` carrying
same-PE edges.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataflow.graph import Actor, DataflowGraph, Edge, concat_blocks
from repro.dataflow.vts import PackedToken
from repro.platform.interconnect import Interconnect
from repro.platform.pe import GPP, PEClass, ProcessingElement
from repro.platform.simulator import Simulator, Waitset
from repro.spi.channel import SpiChannel
from repro.spi.library import ComputeWiring, RecvWiring, SendWiring, WiringPlan
from repro.spi.message import make_ack_message, make_data_message

__all__ = [
    "BatchSchedule",
    "LocalFifo",
    "ComputationTask",
    "SpiInitTask",
    "SpiSendTask",
    "SpiReceiveTask",
    "SyncTokenPool",
    "SyncedTask",
    "payload_nbytes",
    "wire_tasks",
    "INIT_CYCLES",
]

#: one-time channel setup cost charged by SPI_init per PE
INIT_CYCLES = 8


class BatchSchedule:
    """Macro-pass plan of a blocked (batched) execution.

    A run of ``iterations`` graph iterations under blocking factor
    ``batch`` executes ``passes`` macro-passes; in pass ``i`` every task
    runs ``counts[i]`` logical firings atomically.  The tail pass covers
    the remainder when ``iterations`` is not a multiple of ``batch``, so
    token production is exact, never rounded up.
    """

    def __init__(self, iterations: int, batch: int) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        full, tail = divmod(iterations, batch)
        self.iterations = iterations
        self.batch = batch
        self.counts: List[int] = [batch] * full + ([tail] if tail else [])

    @property
    def passes(self) -> int:
        return len(self.counts)


class _BatchedTaskMixin:
    """Shared burst/cost plumbing of the batch-aware SPI tasks.

    ``batch_counts`` is the per-macro-pass firing count list of a
    :class:`BatchSchedule` (``None`` means classic one-firing-at-a-time
    execution); ``pe_class`` prices each dispatch; ``pe`` receives the
    batching counters.  Each task advances its private pass cursor once
    per execution — all tasks of a program run in lockstep, so the
    cursor always names the current macro-pass.

    Classic execution on a gpp (``_single``) runs one firing per
    dispatch at its native cost, so the tasks resolve that path at
    construction: no burst lookup, no pass cursor and no per-dispatch
    cost list; a static integer cycle model (``_static_cycles``) skips
    the cycle-model call.
    """

    def _init_batch(
        self,
        actor: Actor,
        batch_counts: Optional[Sequence[int]],
        pe_class: PEClass,
        pe: Optional[ProcessingElement],
    ) -> None:
        self.actor = actor
        self.batch_counts = list(batch_counts) if batch_counts else None
        self.pe_class = pe_class
        self._pe = pe
        self._pass = 0
        #: program entries this task occupies per macro-pass (= its
        #: actor's repetitions on the PE); set by the runtime after
        #: program assembly
        self.occurrences = 1
        self._executions = 0
        #: one firing per dispatch at native cost: no burst bookkeeping
        self._single = self.batch_counts is None and not pe_class.is_accelerator
        cycles = actor.cycles
        self._static_cycles = (
            cycles if isinstance(cycles, int) and cycles >= 0 else None
        )

    def _native_cycles(self, firing_index: int, inputs: Dict[str, List]) -> int:
        if self._static_cycles is not None:
            return self._static_cycles
        return self.actor.execution_cycles(firing_index, inputs)

    @property
    def burst(self) -> int:
        """Logical firings this execution runs atomically."""
        if self.batch_counts is None:
            return 1
        return self.batch_counts[min(self._pass, len(self.batch_counts) - 1)]

    def _charge(self, native_cycles: Sequence[int]) -> int:
        """Duration of one dispatch over the burst, recording counters."""
        burst = len(native_cycles)
        if burst > 1 and self._pe is not None:
            self._pe.record_batched_dispatch(
                burst, self.pe_class.dispatch_cycles_saved(burst)
            )
        return self.pe_class.batch_cycles(native_cycles)

    def _advance_pass(self) -> None:
        # The pass cursor may only move after the task's *last*
        # occurrence in the program pass, or an actor with repetitions
        # > 1 would read the tail burst mid-pass and under-fire.
        self._executions += 1
        if self._executions >= self.occurrences:
            self._executions = 0
            self._pass += 1


def payload_nbytes(block: Sequence, default_token_bytes: int) -> int:
    """Wire size of a token block (packed tokens know their own size)."""
    if isinstance(block, np.ndarray) and block.dtype != object:
        return len(block) * default_token_bytes
    total = 0
    for token in block:
        if isinstance(token, PackedToken):
            total += token.nbytes
        else:
            total += default_token_bytes
    return total


class LocalFifo:
    """The run-time buffer of one same-PE edge of the SPI-inserted graph.

    An entry is a *block*: the whole token sequence one firing (or one
    message) pushed.  ``count`` is the FIFO's occupancy in tokens, and
    ``high_water`` its peak.  A pop of exactly the head block returns
    that block object; a pop that splits or spans blocks returns the
    same tokens a per-token FIFO would give (a slice or a concatenation
    for ndarray blocks).  ndarray blocks are made read-only at push, and
    any other sequence is copied into a list once, so a consumer never
    aliases a producer's buffer it could write.
    """

    def __init__(self, edge: Edge) -> None:
        self.edge = edge
        if edge.initial_tokens is not None:
            initial = list(edge.initial_tokens)
        else:
            initial = [None] * edge.delay
        self._blocks: Deque[Sequence] = deque([initial] if initial else [])
        #: tokens of the head block already popped
        self._head = 0
        self.count = len(initial)
        self.high_water = self.count
        #: woken on every push (unblocks a starved consumer)
        self.waitset = Waitset(f"fifo:{edge.name}")

    def __len__(self) -> int:
        return self.count

    def snapshot(self) -> Tuple:
        """The queued tokens in FIFO order, for inspection."""
        tokens: List = []
        head = self._head
        for block in self._blocks:
            tokens.extend(block[head:] if head else block)
            head = 0
        return tuple(tokens)

    def push(self, block: Sequence) -> None:
        size = len(block)
        if size:
            if isinstance(block, np.ndarray):
                block.setflags(write=False)
            else:
                block = list(block)
            self._blocks.append(block)
            self.count += size
            if self.count > self.high_water:
                self.high_water = self.count
        self.waitset.wake()

    def pop(self, count: int) -> Sequence:
        if self.count < count:
            raise RuntimeError(
                f"fifo {self.edge.name}: popping {count} of "
                f"{self.count} tokens"
            )
        if not count:
            return []
        blocks = self._blocks
        head = blocks[0]
        if not self._head and len(head) == count:
            blocks.popleft()
            self.count -= count
            return head
        pieces: List[Sequence] = []
        need = count
        while need:
            head = blocks[0]
            start = self._head
            left = len(head) - start
            if left <= need:
                pieces.append(head[start:] if start else head)
                blocks.popleft()
                self._head = 0
                need -= left
            else:
                pieces.append(head[start:start + need])
                self._head = start + need
                need = 0
        self.count -= count
        return concat_blocks(pieces)


class ComputationTask(_BatchedTaskMixin):
    """One dispatch of a dataflow computation actor on its PE.

    ``wiring`` names, per connected port, the member edges the actor
    reads and writes (see :class:`~repro.spi.library.ComputeWiring`) and
    ``fifos`` maps edge ids to their :class:`LocalFifo`: SPI insertion
    guarantees that computation actors only ever touch same-PE edges.
    The tables are resolved once at construction into a flat ``(fifo,
    rate)`` guard chain, a pop table (a port with one plain member pops
    it directly; a collective port assembles its branches) and a push
    table of ``(port, fifo, scatter span)``, so the guard check that
    runs on every park/wake round is one tuple walk.

    Classic execution (unbatched, gpp) runs one firing per dispatch at
    its native cost.  Under a batched (blocked) schedule, or on an
    accelerator, the dispatch covers the macro-pass burst: it consumes
    ``burst * rate`` tokens atomically, runs every sub-firing of the
    burst in logical firing order (bit-identical token streams), and its
    duration is the PE class's amortized dispatch cost.
    """

    def __init__(
        self,
        actor: Actor,
        wiring: ComputeWiring,
        fifos: Dict[int, LocalFifo],
        batch_counts: Optional[Sequence[int]] = None,
        pe_class: PEClass = GPP,
        pe: Optional[ProcessingElement] = None,
    ) -> None:
        self.name = f"fire:{actor.name}"
        self.firing_index = 0
        self._init_batch(actor, batch_counts, pe_class, pe)
        #: (fifo, rate) per member edge of every connected input
        self._guard = tuple(
            (fifos[edge_id], rate)
            for _, branches, _ in wiring.needs
            for edge_id, rate in branches
        )
        #: (port, fifo, rate, branches, connection) per connected input;
        #: fifo is None for a port whose branches are assembled
        pops = []
        for port_name, branches, connection in wiring.needs:
            members = tuple((fifos[edge_id], rate) for edge_id, rate in branches)
            if len(members) == 1 and (
                connection is None or connection.kind != "reduce"
            ):
                fifo, rate = members[0]
                pops.append((port_name, fifo, rate, None, None))
            else:
                pops.append((port_name, None, 0, members, connection))
        self._pops = tuple(pops)
        #: (port, fifo, scatter span or None) per member edge of every
        #: connected output
        self._pushes = tuple(
            (port_name, fifos[edge_id], span)
            for port_name, branches in wiring.emits
            for edge_id, span in branches
        )
        self._staged = None

    @classmethod
    def wired(
        cls,
        actor: Actor,
        graph: DataflowGraph,
        fifos: Dict[int, LocalFifo],
        **batch_kwargs,
    ) -> "ComputationTask":
        """The task of ``actor`` over the fifos of its same-PE edges.

        ``fifos`` maps edge ids to their :class:`LocalFifo`; edges absent
        from it (IPC edges) are not wired.  A port may own several
        member fifos (gather/reduce sinks, all-local broadcast sources).
        """
        return cls(
            actor, ComputeWiring.of(graph, actor, fifos), fifos, **batch_kwargs
        )

    def ready(self, now: int) -> bool:
        burst = 1 if self._single else self.burst
        for fifo, rate in self._guard:
            if fifo.count < burst * rate:
                return False
        return True

    def blocked_reason(self, now: int) -> Optional[str]:
        """Why this firing cannot start (None when it can)."""
        burst = self.burst
        starved = [
            f"{fifo.edge.name!r} "
            f"(has {fifo.count}, needs {burst * rate})"
            for fifo, rate in self._guard
            if fifo.count < burst * rate
        ]
        if starved:
            return "starved on " + ", ".join(starved)
        return None

    def wait_on(self, now: int) -> List[Waitset]:
        """Waitsets of the resources currently blocking the guard."""
        burst = self.burst
        return [
            fifo.waitset
            for fifo, rate in self._guard
            if fifo.count < burst * rate
        ]

    def _pop_one(self) -> Dict[str, List]:
        consumed: Dict[str, List] = {}
        for port_name, fifo, rate, members, connection in self._pops:
            if fifo is not None:
                consumed[port_name] = fifo.pop(rate)
            else:
                consumed[port_name] = connection.assemble(
                    [member.pop(count) for member, count in members]
                )
        return consumed

    def start(self, now: int) -> int:
        if self._single:
            self._staged = self._pop_one()
            return self._native_cycles(self.firing_index, self._staged)
        staged: List[Dict[str, List]] = []
        native: List[int] = []
        for i in range(self.burst):
            consumed = self._pop_one()
            staged.append(consumed)
            native.append(self._native_cycles(self.firing_index + i, consumed))
        self._staged = staged
        return self._charge(native)

    def _fire_one(self, consumed: Dict[str, List]) -> None:
        produced = self.actor.fire(self.firing_index, consumed)
        for port_name, fifo, span in self._pushes:
            if span is None:
                fifo.push(produced[port_name])
            else:
                fifo.push(produced[port_name][span[0]:span[1]])
        self.firing_index += 1

    def finish(self, now: int) -> None:
        assert self._staged is not None
        staged = self._staged
        self._staged = None
        if self._single:
            self._fire_one(staged)
            return
        for consumed in staged:
            self._fire_one(consumed)
        self._advance_pass()


class SpiInitTask:
    """SPI_init: one-time per-PE channel initialisation.

    Appears first in every PE's program; charges :data:`INIT_CYCLES`
    on its first execution and is free afterwards (the hardware module
    initialises pointers and link state once, then idles).
    """

    def __init__(self, pe_index: int) -> None:
        self.name = f"spi_init:PE{pe_index}"
        self._done = False

    def ready(self, now: int) -> bool:
        return True

    def wait_on(self, now: int) -> List[Waitset]:
        return []  # always ready: never parks

    def start(self, now: int) -> int:
        if self._done:
            return 0
        return INIT_CYCLES

    def finish(self, now: int) -> None:
        self._done = True


class SpiSendTask(_BatchedTaskMixin):
    """SPI_send: forwards one message worth of tokens onto the transport.

    Guard: the producer-side FIFO holds a full message *and* the
    protocol allows sending (UBS credit) on every remote branch.  The PE
    is occupied for the header-assembly/injection cycles (the actor's
    cycle model from :mod:`repro.spi.library`); the data transfer itself
    then proceeds concurrently with the PE, serialized by the transport
    (dedicated link, shared bus, or ordered-transaction slot).

    ``branches`` lists ``(ipc edge, SpiChannel)`` per remote branch and
    ``local_branches`` the consumer FIFOs of same-PE branches.  A
    point-to-point send has one branch, no local branch and no
    ``group_key``: its tokens go out unsliced through ``transport.send``.
    A collective (broadcast/scatter) send fires **once** per producer
    firing: it delivers local branches straight into their FIFOs and
    hands every remote branch to ``transport.send_collective`` as one
    transfer keyed by ``group_key`` — the transport shares the wire
    payload across branches bound for the same destination
    (point-to-point) or across the whole fan-out (bus), and accounts the
    avoided bytes in its ``wire_bytes_saved`` counter.  Flow control
    stays per-branch: each branch channel records its own delivery/ack
    traffic, so BBS/UBS bounds and the resync solver keep working per
    channel instance.

    A batched dispatch forwards the whole burst: it needs ``burst``
    messages of tokens and ``burst`` send credits up front, then puts
    ``burst`` separate wire transfers on the transport in firing order —
    message count and token streams stay identical to sequential
    execution; only the dispatch timing amortizes.
    """

    def __init__(
        self,
        actor: Actor,
        branches: List[tuple],
        local_branches: List[LocalFifo],
        in_fifo: LocalFifo,
        transport,
        group_key: Optional[str] = None,
        batch_counts: Optional[Sequence[int]] = None,
        pe_class: PEClass = GPP,
        pe: Optional[ProcessingElement] = None,
    ) -> None:
        self.name = f"{actor.name}"
        #: (ipc edge, SpiChannel) per remote branch, in branch order
        self.branches = sorted(
            branches, key=lambda item: item[0].branch_index
        )
        self.local_branches = sorted(
            local_branches, key=lambda fifo: fifo.edge.branch_index
        )
        self.in_fifo = in_fifo
        self.transport = transport
        self.rate = actor.port("in").rate
        self.group_key = group_key
        connections = {
            id(edge.connection): edge.connection
            for edge, _ in self.branches
        }
        for fifo in self.local_branches:
            connections[id(fifo.edge.connection)] = fifo.edge.connection
        if len(connections) != 1:
            raise ValueError(
                f"send {actor.name}: branches belong to "
                f"{len(connections)} connections, expected exactly 1"
            )
        self.connection = next(iter(connections.values()))
        self.shared_payload = self.connection.kind == "broadcast"
        self.firing_index = 0
        self._init_batch(actor, batch_counts, pe_class, pe)
        #: flow controls of the branches whose credits can close the guard
        self._credited = tuple(
            channel.flow
            for _, channel in self.branches
            if channel.flow.uses_credits
        )
        self._staged = None

    def ready(self, now: int) -> bool:
        if self._single:
            if self.in_fifo.count < self.rate:
                return False
            for flow in self._credited:
                if not flow.can_send():
                    return False
            return True
        burst = self.burst
        return self.in_fifo.count >= burst * self.rate and all(
            channel.flow.can_send_n(burst) for _, channel in self.branches
        )

    def blocked_reason(self, now: int) -> Optional[str]:
        """Why this send cannot start (None when it can)."""
        burst = self.burst
        if self.in_fifo.count < burst * self.rate:
            return (
                f"starved on {self.in_fifo.edge.name!r} "
                f"(has {self.in_fifo.count}, needs {burst * self.rate})"
            )
        closed = [
            channel.edge.name
            for _, channel in self.branches
            if not channel.flow.can_send_n(burst)
        ]
        if closed:
            return "waiting for ack credit on channel " + ", ".join(
                repr(name) for name in closed
            )
        return None

    def wait_on(self, now: int) -> List[Waitset]:
        """Waitsets of the resources currently blocking the guard."""
        burst = self.burst
        waitsets = []
        if self.in_fifo.count < burst * self.rate:
            waitsets.append(self.in_fifo.waitset)
        waitsets.extend(
            channel.space_waitset
            for _, channel in self.branches
            if not channel.flow.can_send_n(burst)
        )
        return waitsets

    def start(self, now: int) -> int:
        if self._single:
            tokens = self._staged = self.in_fifo.pop(self.rate)
            for _, channel in self.branches:
                channel.on_send()
            return self._native_cycles(self.firing_index, {"in": tokens})
        staged: List[List] = []
        native: List[int] = []
        for i in range(self.burst):
            tokens = self.in_fifo.pop(self.rate)
            for _, channel in self.branches:
                channel.on_send()
            staged.append(tokens)
            native.append(
                self._native_cycles(self.firing_index + i, {"in": tokens})
            )
        self._staged = staged
        return self._charge(native)

    def finish(self, now: int) -> None:
        assert self._staged is not None
        staged = self._staged
        self._staged = None
        if self._single:
            self.firing_index += 1
            self._launch(now, staged)
            return
        self._advance_pass()
        for tokens in staged:
            self.firing_index += 1
            self._launch(now, tokens)

    def _launch(self, now: int, tokens: List) -> None:
        connection = self.connection
        for fifo in self.local_branches:
            fifo.push(connection.produced_tokens(fifo.edge, tokens))
        if not self.branches:
            return
        parts = []
        for edge, channel in self.branches:
            payload = (
                tokens
                if self.group_key is None
                else connection.produced_tokens(edge, tokens)
            )
            message = make_data_message(
                edge_id=channel.edge.edge_id,
                payload=payload,
                payload_bytes=payload_nbytes(payload, channel.token_bytes),
                dynamic=channel.dynamic,
            )

            def deliver(channel=channel, message=message) -> None:
                channel.deliver(message)

            parts.append(
                (channel.edge.name, channel.dst_pe, message.wire_bytes, deliver)
            )
        src_pe = self.branches[0][1].src_pe
        if self.group_key is None:
            channel_key, dst_pe, nbytes, deliver = parts[0]
            self.transport.send(
                channel_key=channel_key,
                src_pe=src_pe,
                dst_pe=dst_pe,
                nbytes=nbytes,
                now=now,
                deliver=deliver,
            )
            return
        self.transport.send_collective(
            group_key=self.group_key,
            src_pe=src_pe,
            parts=parts,
            now=now,
            shared_payload=self.shared_payload,
        )


class SyncTokenPool:
    """Run-time state of one *added* resynchronization edge.

    Resynchronization may add new synchronization edges ``(u, v, d)``
    whose job is to make several acknowledgment edges redundant (paper
    §4.1: "the number of additional synchronizations that become
    redundant exceeds the number of new synchronizations that are
    added").  At run time the edge is a counting semaphore shipped by
    zero-payload messages: ``u``'s completion number ``k`` deposits a
    token (after the link latency), ``v``'s firing number ``k`` consumes
    one, and ``d`` tokens are pre-deposited — exactly eq. 3's
    ``start(v, k) >= end(u, k - d)``.
    """

    def __init__(self, name: str, initial: int) -> None:
        if initial < 0:
            raise ValueError("initial sync tokens must be >= 0")
        self.name = name
        self.tokens = initial
        self.messages_sent = 0
        #: most tokens ever held at once (observability)
        self.high_water = initial
        #: failed availability checks — the consumer retried on empty
        self.empty_stalls = 0
        #: woken on every deposit (unblocks a guarded consumer)
        self.waitset = Waitset(f"pool:{name}")

    def available(self) -> bool:
        if self.tokens > 0:
            return True
        self.empty_stalls += 1
        return False

    def consume(self) -> None:
        if self.tokens <= 0:
            raise RuntimeError(
                f"sync pool {self.name!r}: consumed with zero tokens"
            )
        self.tokens -= 1

    def deposit(self) -> None:
        self.tokens += 1
        if self.tokens > self.high_water:
            self.high_water = self.tokens
        self.waitset.wake()


class SyncedTask:
    """Decorator adding resynchronization guards/notifications to a task.

    ``guards`` are pools this task must consume from before firing;
    ``notify`` lists ``(pool, link supplier)`` pairs it deposits into on
    completion (via a sync message on the interconnect).  For multirate
    tasks, ``phase``/``period`` select which invocations of the shared
    underlying task participate (sync edges constrain one invocation per
    iteration).
    """

    def __init__(
        self,
        inner,
        sim: Simulator,
        guards: Optional[List["SyncTokenPool"]] = None,
        notifications: Optional[List[tuple]] = None,
        phase: int = 0,
        period: int = 1,
        observer=None,
    ) -> None:
        if period < 1 or not 0 <= phase < period:
            raise ValueError("need 0 <= phase < period")
        self.inner = inner
        self.name = f"sync:{inner.name}"
        self.sim = sim
        self.guards = list(guards or [])
        #: list of (pool, link, wire_bytes) triples
        self.notifications = list(notifications or [])
        self.phase = phase
        self.period = period
        self.observer = observer
        self._count = 0

    def _participates(self) -> bool:
        return self._count % self.period == self.phase

    def ready(self, now: int) -> bool:
        if self._participates() and not all(
            pool.available() for pool in self.guards
        ):
            return False
        return self.inner.ready(now)

    def blocked_reason(self, now: int) -> Optional[str]:
        """Why this task cannot start (None when it can).

        Inspects ``pool.tokens`` directly rather than calling
        :meth:`SyncTokenPool.available`, which counts stalls for the
        observability layer — diagnosis must not perturb metrics.
        """
        if self._participates():
            empty = [pool.name for pool in self.guards if pool.tokens <= 0]
            if empty:
                return "waiting for sync tokens on " + ", ".join(
                    repr(name) for name in empty
                )
        inner_reason = getattr(self.inner, "blocked_reason", None)
        if inner_reason is not None:
            return inner_reason(now)
        return None

    def wait_on(self, now: int) -> List[Waitset]:
        """Waitsets of the resources currently blocking the guard.

        Like :meth:`blocked_reason`, inspects ``pool.tokens`` directly
        instead of calling :meth:`SyncTokenPool.available` so diagnosis
        does not perturb the stall metrics.
        """
        waitsets = []
        if self._participates():
            waitsets.extend(
                pool.waitset for pool in self.guards if pool.tokens <= 0
            )
        # the inner hook names only currently-blocking resources, so it
        # contributes nothing when the inner guard holds
        waitsets.extend(self.inner.wait_on(now))
        return waitsets

    def start(self, now: int):
        if self._participates():
            for pool in self.guards:
                pool.consume()
        return self.inner.start(now)

    def finish(self, now: int) -> None:
        self.inner.finish(now)
        if self._participates():
            for pool, link, wire_bytes in self.notifications:
                pool.messages_sent += 1
                link.send(
                    self.sim, now, wire_bytes, pool.deposit,
                    ("resync", pool.name), self.observer,
                )
        self._count += 1


class SpiReceiveTask(_BatchedTaskMixin):
    """SPI_receive: decodes one arrived message into the consumer FIFO.

    For UBS channels with acknowledgments enabled, completion also
    launches the ack message on the reverse link ("implemented as
    separate messages", paper §4.1); resynchronization may have disabled
    it (``channel.flow.uses_credits`` false), in which case the message
    never exists — that is the optimization the ablation bench measures.

    A batched dispatch waits for the whole burst of messages, then
    decodes them in arrival order and acknowledges each one separately —
    message and ack counts match sequential execution exactly.
    """

    def __init__(
        self,
        actor: Actor,
        channel: SpiChannel,
        out_fifo: LocalFifo,
        sim: Simulator,
        interconnect: Interconnect,
        observer=None,
        batch_counts: Optional[Sequence[int]] = None,
        pe_class: PEClass = GPP,
        pe: Optional[ProcessingElement] = None,
    ) -> None:
        self.name = f"{actor.name}"
        self.channel = channel
        self.out_fifo = out_fifo
        self.sim = sim
        self.interconnect = interconnect
        self.observer = observer
        self.firing_index = 0
        self._init_batch(actor, batch_counts, pe_class, pe)

    def ready(self, now: int) -> bool:
        if self._single:
            return self.channel.receive_ready()
        return self.channel.receive_ready_n(self.burst)

    def blocked_reason(self, now: int) -> Optional[str]:
        """Why this receive cannot start (None when it can)."""
        burst = self.burst
        if not self.channel.receive_ready_n(burst):
            need = f" {burst} messages" if burst > 1 else " a message"
            return (
                f"waiting for{need} on channel "
                f"{self.channel.edge.name!r}"
            )
        return None

    def wait_on(self, now: int) -> List[Waitset]:
        """Waitsets of the resources currently blocking the guard."""
        return [self.channel.data_waitset]

    def start(self, now: int) -> int:
        # The messages are consumed at completion; duration models header
        # decode plus payload copy into the consumer-side buffer.
        if self._single:
            return self._native_cycles(self.firing_index, {})
        native = [
            self._native_cycles(self.firing_index + i, {})
            for i in range(self.burst)
        ]
        return self._charge(native)

    def finish(self, now: int) -> None:
        if self._single:
            self._accept_one(now)
            return
        burst = self.burst
        self._advance_pass()
        for _ in range(burst):
            self._accept_one(now)

    def _accept_one(self, now: int) -> None:
        channel = self.channel
        message = channel.accept()
        self.firing_index += 1
        if message.is_dynamic and message.size_field != len(message.payload):
            raise RuntimeError(
                f"channel {channel.edge.name}: dynamic header size "
                f"field {message.size_field} does not match payload "
                f"length {len(message.payload)}"
            )
        self.out_fifo.push(message.payload)
        if channel.flow.uses_credits:
            ack = make_ack_message(channel.edge.edge_id)
            self.interconnect.link(channel.dst_pe, channel.src_pe).send(
                self.sim, now, ack.wire_bytes, lambda: channel.deliver(ack),
                ("ack", channel.edge.name), self.observer,
            )


def wire_tasks(
    plan: WiringPlan,
    channels: Dict[str, object],
    send: Callable[..., object],
    recv: Callable[..., object],
    options: Optional[Callable[[Actor], Dict[str, object]]] = None,
) -> Tuple[Dict[str, object], Dict[int, LocalFifo]]:
    """One run-time task per actor of a lowering's :class:`WiringPlan`.

    ``channels`` maps each origin edge name of the insertion's channels
    to the communication layer's channel object.  Every edge of
    ``plan.local_edges`` gets a fresh :class:`LocalFifo`.  Send actors
    are built by ``send(actor, [(ipc edge, channel), ...], local fifos,
    in_fifo, group, **kw)``, where ``group`` is the actor's
    :class:`~repro.spi.library.CollectiveSendGroup` or None for a
    point-to-point send; receive actors by ``recv(actor, channel,
    out_fifo, **kw)``; every other actor is a :class:`ComputationTask`.
    ``options(actor)`` supplies the per-actor keyword arguments ``kw``
    of all three.

    Returns ``(task by actor name, fifo by edge id)``.
    """
    fifos: Dict[int, LocalFifo] = {
        edge.edge_id: LocalFifo(edge) for edge in plan.local_edges
    }
    tasks: Dict[str, object] = {}
    for actor, wiring in plan.actors:
        kw = options(actor) if options is not None else {}
        if type(wiring) is SendWiring:
            tasks[actor.name] = send(
                actor,
                [(edge, channels[origin]) for edge, origin in wiring.remote],
                [fifos[edge_id] for edge_id in wiring.local],
                fifos[wiring.in_edge],
                wiring.group,
                **kw,
            )
        elif type(wiring) is RecvWiring:
            tasks[actor.name] = recv(
                actor, channels[wiring.origin], fifos[wiring.out_edge], **kw
            )
        else:
            tasks[actor.name] = ComputationTask(actor, wiring, fifos, **kw)
    return tasks, fifos
