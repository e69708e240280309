"""Run-time SPI actors: the firing program every PE's sequencer runs.

The HDL SPI library of the paper consists of **SPI_init**, **SPI_send**
and **SPI_receive** modules in SPI_static and SPI_dynamic flavours; the
computation actors of the application are entirely separate ("these
special modules ensure that the communication part of a system is
completely separated from the computation part").  Their ports, rates
and protocol are fixed at compile time, so this module lowers every
actor of a :class:`~repro.spi.library.WiringPlan` once per run into a
flat :class:`~repro.platform.simulator.Op` record, which the PE
sequencer interprets.  It also provides the run-time state those
records point at: the :class:`LocalFifo` carrying same-PE edges and the
:class:`SyncTokenPool` carrying added resynchronization edges.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from numpy import ndarray

from repro.dataflow.graph import Actor, Edge, concat_blocks
from repro.platform.simulator import FIRE, INIT, RECV, SEND, Op, Waitset
from repro.spi.library import (
    ComputeWiring,
    RecvWiring,
    SendWiring,
    WiringPlan,
    static_cycles,
)

__all__ = [
    "BatchSchedule",
    "LocalFifo",
    "SyncTokenPool",
    "SyncLayer",
    "compute_op",
    "init_op",
    "send_op",
    "recv_op",
    "wire_ops",
    "INIT_CYCLES",
]

#: one-time channel setup cost charged by SPI_init per PE
INIT_CYCLES = 8


class BatchSchedule:
    """Macro-pass plan of a blocked (batched) execution.

    A run of ``iterations`` graph iterations under blocking factor
    ``batch`` executes ``passes`` macro-passes; in pass ``i`` every op
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
            if isinstance(block, ndarray):
                block.setflags(False)  # write=False; positional is cheaper
            else:
                block = list(block)
            self._blocks.append(block)
            count = self.count = self.count + size
            if count > self.high_water:
                self.high_water = count
        if self.waitset.waiters:
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
        #: woken on every deposit (unblocks a guarded consumer)
        self.waitset = Waitset(f"pool:{name}")

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


class SyncLayer:
    """One resynchronization layer of an op (see ``Op.sync``).

    On the invocations where ``count % period == phase`` (sync edges
    constrain one invocation of a multirate actor per iteration) the op
    guards on and consumes one token of every pool in ``guards`` and,
    after it completes, sends one sync message per ``(pool, link,
    wire bytes)`` of ``notify``, which deposits into the pool when it
    lands.  ``count`` counts the op's invocations.
    """

    __slots__ = ("guards", "notify", "phase", "period", "observer", "count")

    def __init__(
        self,
        guards: Sequence[SyncTokenPool] = (),
        notify: Sequence[tuple] = (),
        phase: int = 0,
        period: int = 1,
        observer=None,
    ) -> None:
        if period < 1 or not 0 <= phase < period:
            raise ValueError("need 0 <= phase < period")
        self.guards = tuple(guards)
        self.notify = tuple(notify)
        self.phase = phase
        self.period = period
        self.observer = observer
        self.count = 0

    @staticmethod
    def attach(op: Op, layer: "SyncLayer") -> None:
        """Wrap ``op`` in ``layer`` (it becomes the outermost layer)."""
        op.name = f"sync:{op.name}"
        op.sync = (layer,) + (op.sync or ())


def init_op(pe_index: int) -> Op:
    """SPI_init: charges :data:`INIT_CYCLES` on the PE's first
    dispatch and is free afterwards (the hardware module initialises
    pointers and link state once, then idles)."""
    return Op(INIT, f"spi_init:PE{pe_index}", cycles=INIT_CYCLES)


def compute_op(
    actor: Actor,
    wiring: ComputeWiring,
    fifos: Dict[int, LocalFifo],
    counts: Optional[Sequence[int]] = None,
) -> Op:
    """The FIRE op of a computation actor over its same-PE fifos.

    ``wiring`` holds the op's guard, pop and push tables with edge ids
    for fifos and ``fifos`` maps those edge ids to their
    :class:`LocalFifo` (SPI insertion guarantees that computation actors
    only ever touch same-PE edges).  A port with one member pops it
    directly; a gather assembles its members.
    """
    return Op(
        FIRE,
        wiring.name,
        actor=actor,
        cycles=wiring.cycles,
        guard=tuple([(fifos[edge_id], rate) for edge_id, rate in wiring.guard]),
        pops=tuple(
            [
                (port, fifos[edge_id], rate, None, None)
                if members is None
                else (
                    port,
                    None,
                    0,
                    tuple([(fifos[member], n) for member, n in members]),
                    connection,
                )
                for port, edge_id, rate, members, connection in wiring.pops
            ]
        ),
        pushes=tuple([(port, fifos[edge_id]) for port, edge_id in wiring.pushes]),
        counts=counts,
    )


def send_op(
    actor: Actor,
    branches: Sequence[tuple],
    local: Sequence[LocalFifo],
    in_fifo: LocalFifo,
    wire,
    group: Optional[str] = None,
    name: Optional[str] = None,
    cost: Optional[Callable] = None,
    rendezvous: bool = False,
    counts: Optional[Sequence[int]] = None,
) -> Op:
    """The SEND op forwarding one message worth of tokens per firing.

    ``branches`` lists ``(ipc edge, channel)`` per remote branch and
    ``local`` the consumer FIFOs of same-PE branches; ``wire`` is the
    layer's data path (a transport, or the MPI baseline's links).  A
    point-to-point send (``group`` None) has one branch and sends its
    tokens unsliced through ``wire.send``.  A collective send fires
    **once** per producer firing: it delivers local branches straight
    into their FIFOs and hands every remote branch to
    ``wire.send_collective`` as one transfer keyed by ``group``, which
    may share the payload across branches.  Flow control stays per
    branch: each channel's ``flow`` (None on a layer without one) counts
    its sends, and the channels whose flow uses credits close the guard.
    ``cost`` prices the op instead of the actor's cycle model (see
    :class:`~repro.platform.simulator.Op`).
    """
    remote = tuple(sorted(branches, key=lambda item: item[0].branch_index))
    local = tuple(sorted(local, key=lambda fifo: fifo.edge.branch_index))
    flows = tuple(
        channel.flow for _, channel in remote if channel.flow is not None
    )
    return Op(
        SEND,
        name or actor.name,
        actor=actor,
        cycles=static_cycles(actor) if cost is None else None,
        cost=cost,
        fifo=in_fifo,
        rate=actor.port("in").rate,
        flows=flows,
        credited=tuple(
            channel
            for _, channel in remote
            if channel.flow is not None and channel.flow.uses_credits
        ),
        remote=remote,
        local=local,
        wire=wire,
        group=group,
        rendezvous=rendezvous,
        counts=counts,
    )


def recv_op(
    actor: Actor,
    channel,
    out_fifo: LocalFifo,
    name: Optional[str] = None,
    cost: Optional[Callable] = None,
    counts: Optional[Sequence[int]] = None,
) -> Op:
    """The RECV op decoding one arrived message per firing into
    ``out_fifo`` (``channel.receive_into`` also sends the channel's
    acknowledgment, if it has one)."""
    return Op(
        RECV,
        name or actor.name,
        actor=actor,
        cycles=static_cycles(actor) if cost is None else None,
        cost=cost,
        channel=channel,
        fifo=out_fifo,
        counts=counts,
    )


def wire_ops(
    plan: WiringPlan,
    channels: Dict[str, object],
    send: Callable[..., Op],
    recv: Callable[..., Op],
    counts: Optional[Sequence[int]] = None,
) -> Tuple[Dict[str, Op], Dict[int, LocalFifo]]:
    """One op per actor of a lowering's :class:`WiringPlan`.

    ``channels`` maps each origin edge name of the insertion's channels
    to the communication layer's channel object.  Every edge of
    ``plan.local_edges`` gets a fresh :class:`LocalFifo`.  Send ops are
    built by ``send(actor, [(ipc edge, channel), ...], local fifos,
    in_fifo, group)``, where ``group`` is the actor's
    :class:`~repro.spi.library.CollectiveSendGroup` or None for a
    point-to-point send; receive ops by ``recv(actor, channel,
    out_fifo)``; every other actor is a :func:`compute_op` with burst
    ``counts``.

    Returns ``(op by actor name, fifo by edge id)``.
    """
    fifos: Dict[int, LocalFifo] = {
        edge.edge_id: LocalFifo(edge) for edge in plan.local_edges
    }
    ops: Dict[str, Op] = {}
    for actor, wiring in plan.actors:
        if type(wiring) is SendWiring:
            ops[actor.name] = send(
                actor,
                [(edge, channels[origin]) for edge, origin in wiring.remote],
                [fifos[edge_id] for edge_id in wiring.local],
                fifos[wiring.in_edge],
                wiring.group,
            )
        elif type(wiring) is RecvWiring:
            ops[actor.name] = recv(
                actor, channels[wiring.origin], fifos[wiring.out_edge]
            )
        else:
            ops[actor.name] = compute_op(actor, wiring, fifos, counts)
    return ops, fifos
