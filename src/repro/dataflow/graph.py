"""Coarse-grain dataflow graph data structures.

This module provides the basic vocabulary used throughout the SPI
reproduction: actors with rate-annotated ports, edges with initial delays
(tokens), and the :class:`DataflowGraph` container that the SDF analyses,
the VTS conversion, the multiprocessor mapping and the SPI library all
operate on.

The model follows the conventions of Lee/Messerschmitt SDF and of Sriram &
Bhattacharyya's *Embedded Multiprocessors* book, which the paper builds on:

* an **actor** is a coarse-grain functional block that *fires* atomically,
  consuming a fixed number of tokens from each input port and producing a
  fixed number of tokens on each output port;
* an **edge** is a conceptually unbounded FIFO connecting one output port
  to one input port, optionally carrying ``delay`` initial tokens;
* a **connection** generalises the edge to a hyperedge (after
  Liu/Barford/Bhattacharyya's generalized graph connections): a
  point-to-point FIFO is the degenerate one-branch case, while a
  broadcast fans one producer port out to k consumer ports and a gather
  fans k producer ports into one consumer port.  Every
  connection *lowers* to one member :class:`Edge` per branch, so all
  edge-based analyses (repetitions vector, PASS, HSDF, IPC graph) keep
  working unchanged — they only need to read the per-branch
  ``Edge.prod_rate`` / ``Edge.cons_rate`` instead of the raw port rates;
* a **port rate** is an integer for static (SDF) ports, or a
  :class:`~repro.dataflow.dynamic.DynamicRate` bound for dynamic ports
  (see :mod:`repro.dataflow.dynamic`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.dataflow.dynamic import DynamicRate

__all__ = [
    "Direction",
    "Port",
    "Actor",
    "Edge",
    "Connection",
    "DataflowGraph",
    "GraphError",
    "concat_blocks",
]


class GraphError(ValueError):
    """Raised on structurally invalid graph construction or queries."""


class Direction:
    """Port direction constants (plain strings keep reprs readable)."""

    INPUT = "input"
    OUTPUT = "output"


Rate = Union[int, DynamicRate]


@dataclass
class Port:
    """A rate-annotated connection point on an actor.

    Parameters
    ----------
    name:
        Port name, unique within its actor.
    direction:
        ``Direction.INPUT`` or ``Direction.OUTPUT``.
    rate:
        Tokens consumed/produced per firing.  An ``int`` for SDF ports, a
        :class:`DynamicRate` for dynamic ports that will be subjected to
        VTS conversion.
    token_bytes:
        Size in bytes of one *raw* (unpacked) token flowing through this
        port.  Used by the VTS bound computation (paper eq. 1) and by the
        platform's communication-cost model.
    """

    name: str
    direction: str
    rate: Rate = 1
    token_bytes: int = 4
    actor: Optional["Actor"] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.direction not in (Direction.INPUT, Direction.OUTPUT):
            raise GraphError(f"invalid port direction {self.direction!r}")
        if isinstance(self.rate, bool) or (
            isinstance(self.rate, int) and self.rate <= 0
        ):
            raise GraphError(
                f"port {self.name!r}: static rate must be a positive int, "
                f"got {self.rate!r}"
            )
        if not isinstance(self.rate, (int, DynamicRate)):
            raise GraphError(
                f"port {self.name!r}: rate must be int or DynamicRate, "
                f"got {type(self.rate).__name__}"
            )
        if self.token_bytes <= 0:
            raise GraphError(
                f"port {self.name!r}: token_bytes must be positive"
            )

    @property
    def is_dynamic(self) -> bool:
        """True when this port has a run-time varying rate."""
        return isinstance(self.rate, DynamicRate)

    @property
    def is_input(self) -> bool:
        return self.direction == Direction.INPUT

    @property
    def is_output(self) -> bool:
        return self.direction == Direction.OUTPUT

    @property
    def max_rate(self) -> int:
        """Upper bound on the port rate (the rate itself for SDF ports)."""
        if isinstance(self.rate, DynamicRate):
            return self.rate.bound
        return self.rate

    @property
    def qualified_name(self) -> str:
        owner = self.actor.name if self.actor is not None else "<detached>"
        return f"{owner}.{self.name}"


class Actor:
    """A coarse-grain dataflow actor.

    An actor owns a set of named ports, an optional functional *kernel*
    (used by the token-level simulator to compute real output values) and
    a *cycle model* (used by the platform simulator to charge execution
    time).

    Parameters
    ----------
    name:
        Unique actor name within its graph.
    kernel:
        ``kernel(firing_index, inputs) -> outputs`` where ``inputs`` maps
        input-port name to the list of consumed tokens and ``outputs``
        must map every output-port name to the list of produced tokens.
        ``None`` makes the actor purely structural (token values are
        opaque placeholders).
    cycles:
        Either an ``int`` (cycles per firing) or a callable
        ``cycles(firing_index, inputs) -> int`` for data-dependent time.
    params:
        Free-form parameter dictionary (model order, frame size, ...).
    """

    def __init__(
        self,
        name: str,
        kernel: Optional[Callable[[int, Dict[str, list]], Dict[str, list]]] = None,
        cycles: Union[int, Callable[..., int]] = 1,
        params: Optional[Dict[str, Any]] = None,
    ) -> None:
        if not name:
            raise GraphError("actor name must be non-empty")
        self.name = name
        self.kernel = kernel
        self.cycles = cycles
        self.params: Dict[str, Any] = dict(params or {})
        self._ports: Dict[str, Port] = {}
        #: names of the output ports, kept by :meth:`add_port`
        self._output_names: Set[str] = set()
        self.graph: Optional["DataflowGraph"] = None

    # -- port management -------------------------------------------------

    def add_port(self, port: Port) -> Port:
        """Attach ``port`` to this actor; returns the port for chaining."""
        if port.name in self._ports:
            raise GraphError(
                f"actor {self.name!r} already has a port {port.name!r}"
            )
        port.actor = self
        self._ports[port.name] = port
        if port.is_output:
            self._output_names.add(port.name)
        return port

    def add_input(self, name: str, rate: Rate = 1, token_bytes: int = 4) -> Port:
        """Convenience: create and attach an input port."""
        return self.add_port(Port(name, Direction.INPUT, rate, token_bytes))

    def add_output(self, name: str, rate: Rate = 1, token_bytes: int = 4) -> Port:
        """Convenience: create and attach an output port."""
        return self.add_port(Port(name, Direction.OUTPUT, rate, token_bytes))

    def port(self, name: str) -> Port:
        try:
            return self._ports[name]
        except KeyError:
            raise GraphError(
                f"actor {self.name!r} has no port {name!r}; "
                f"known ports: {sorted(self._ports)}"
            ) from None

    @property
    def ports(self) -> Tuple[Port, ...]:
        return tuple(self._ports.values())

    @property
    def input_ports(self) -> Tuple[Port, ...]:
        return tuple(p for p in self._ports.values() if p.is_input)

    @property
    def output_ports(self) -> Tuple[Port, ...]:
        return tuple(p for p in self._ports.values() if p.is_output)

    @property
    def is_dynamic(self) -> bool:
        """True if any port of this actor has a dynamic rate."""
        return any(p.is_dynamic for p in self._ports.values())

    # -- execution helpers ------------------------------------------------

    def execution_cycles(self, firing_index: int, inputs: Optional[dict] = None) -> int:
        """Cycles charged for one firing (evaluates a callable model)."""
        if callable(self.cycles):
            value = self.cycles(firing_index, inputs or {})
        else:
            value = self.cycles
        if value < 0:
            raise GraphError(
                f"actor {self.name!r}: negative execution time {value}"
            )
        return int(value)

    def fire(self, firing_index: int, inputs: Dict[str, list]) -> Dict[str, list]:
        """Run the functional kernel for one firing.

        Structural actors (``kernel is None``) produce ``rate`` copies of
        ``None`` on each output port, which is sufficient for pure timing
        simulations.
        """
        if self.kernel is None:
            return {
                p.name: [None] * p.max_rate for p in self.output_ports
            }
        outputs = self.kernel(firing_index, inputs)
        if not outputs.keys() >= self._output_names:
            missing = self._output_names - set(outputs)
            raise GraphError(
                f"actor {self.name!r} kernel did not produce outputs for "
                f"ports {sorted(missing)}"
            )
        return outputs

    def __repr__(self) -> str:
        return f"Actor({self.name!r})"


class Edge:
    """A FIFO channel between an output port and an input port.

    ``delay`` is the number of initial tokens on the channel (unit-delay
    feedback edges are how SDF expresses iteration boundaries).
    """

    _ids = itertools.count()

    def __init__(
        self,
        source: Port,
        sink: Port,
        delay: int = 0,
        name: Optional[str] = None,
    ) -> None:
        if not source.is_output:
            raise GraphError(
                f"edge source {source.qualified_name} is not an output port"
            )
        if not sink.is_input:
            raise GraphError(
                f"edge sink {sink.qualified_name} is not an input port"
            )
        if delay < 0:
            raise GraphError("edge delay (initial tokens) must be >= 0")
        self.source = source
        self.sink = sink
        self.delay = delay
        self.edge_id = next(Edge._ids)
        self.name = name or (
            f"{source.qualified_name}->{sink.qualified_name}"
        )
        #: optional concrete values for the ``delay`` initial tokens; when
        #: None the functional simulator uses ``None`` placeholders
        self.initial_tokens: Optional[list] = None
        #: owning :class:`Connection` (every edge belongs to exactly one;
        #: a plain ``connect()`` wraps the edge in a degenerate FIFO
        #: connection) and this edge's position among its branches
        self.connection: Optional["Connection"] = None
        self.branch_index: int = 0
        #: gather chunk size: a gather branch consumes fewer tokens
        #: than its (shared) sink port rate
        self.cons_rate_override: Optional[int] = None

    @property
    def prod_rate(self) -> "Rate":
        """Tokens produced on this edge per source-actor firing."""
        return self.source.rate

    @property
    def cons_rate(self) -> "Rate":
        """Tokens consumed from this edge per sink-actor firing."""
        if self.cons_rate_override is not None:
            return self.cons_rate_override
        return self.sink.rate

    def set_initial_tokens(self, values: list) -> None:
        """Provide concrete values for the initial (delay) tokens."""
        if len(values) != self.delay:
            raise GraphError(
                f"edge {self.name}: {len(values)} initial values for "
                f"delay {self.delay}"
            )
        self.initial_tokens = list(values)

    @property
    def src_actor(self) -> Actor:
        assert self.source.actor is not None
        return self.source.actor

    @property
    def snk_actor(self) -> Actor:
        assert self.sink.actor is not None
        return self.sink.actor

    @property
    def is_dynamic(self) -> bool:
        """True if either endpoint has a dynamic rate."""
        return self.source.is_dynamic or self.sink.is_dynamic

    @property
    def is_selfloop(self) -> bool:
        return self.src_actor is self.snk_actor

    @property
    def token_bytes(self) -> int:
        """Bytes per token travelling on this edge.

        The producer defines the token layout; a mismatch with the
        consumer's declared token size is rejected at graph validation.
        """
        return self.source.token_bytes

    def __repr__(self) -> str:
        return (
            f"Edge({self.src_actor.name}.{self.source.name} -> "
            f"{self.snk_actor.name}.{self.sink.name}, delay={self.delay})"
        )


def _block(tokens: Sequence) -> Sequence:
    """An ndarray block as it is; any other sequence as a new list."""
    return tokens if isinstance(tokens, np.ndarray) else list(tokens)


def concat_blocks(blocks: Sequence[Sequence]) -> Sequence:
    """The tokens of ``blocks`` in order, as one block.

    ndarray blocks of one dtype and one token shape join into one array
    (a lone block is returned as it is), so the join never changes a
    token's type; anything else becomes the list of tokens a per-token
    FIFO would hold.
    """
    first = blocks[0] if blocks else None
    if isinstance(first, np.ndarray) and all(
        isinstance(block, np.ndarray)
        and block.dtype == first.dtype
        and block.shape[1:] == first.shape[1:]
        for block in blocks
    ):
        return first if len(blocks) == 1 else np.concatenate(blocks)
    tokens: list = []
    for block in blocks:
        tokens.extend(block)
    return tokens


class Connection:
    """A (hyper)edge owning one member :class:`Edge` per branch.

    Kinds
    -----
    ``fifo``
        The degenerate point-to-point case: exactly one branch.  Every
        :meth:`DataflowGraph.connect` edge is wrapped in one.
    ``broadcast``
        One producer port, k consumer ports; every consumer receives a
        full copy of the produced tokens (branch rates are the natural
        port rates; only the wire lowering is shared).
    ``gather``
        k producer ports, one consumer port; the consumer pops
        ``chunks[i]`` tokens from branch i per firing (default: even
        split; ``Edge.cons_rate_override``) and sees the concatenation
        in branch order.

    A connection is *collective* only when it is non-FIFO **and** has
    more than one branch — a 1-consumer broadcast or 1-producer gather
    is bit-identical to a plain FIFO edge by construction.
    """

    FIFO = "fifo"
    BROADCAST = "broadcast"
    GATHER = "gather"
    KINDS = (FIFO, BROADCAST, GATHER)

    _ids = itertools.count()

    def __init__(
        self,
        kind: str,
        edges: List[Edge],
        name: Optional[str] = None,
        chunks: Optional[List[int]] = None,
    ) -> None:
        if kind not in self.KINDS:
            raise GraphError(
                f"unknown connection kind {kind!r}; known: {self.KINDS}"
            )
        if not edges:
            raise GraphError("a connection needs at least one member edge")
        if kind == self.FIFO and len(edges) != 1:
            raise GraphError("a FIFO connection has exactly one branch")
        self.kind = kind
        self.edges: Tuple[Edge, ...] = tuple(edges)
        self.connection_id = next(Connection._ids)
        self.name = name or f"{kind}_{self.connection_id}"
        self.chunks: Optional[Tuple[int, ...]] = (
            tuple(chunks) if chunks is not None else None
        )
        for index, edge in enumerate(self.edges):
            edge.connection = self
            edge.branch_index = index
        if self.chunks is not None:
            if len(self.chunks) != len(self.edges):
                raise GraphError(
                    f"connection {self.name}: {len(self.chunks)} chunks "
                    f"for {len(self.edges)} branches"
                )
            if any(c <= 0 for c in self.chunks):
                raise GraphError(
                    f"connection {self.name}: chunk sizes must be positive"
                )
            if kind != self.GATHER:
                raise GraphError(
                    f"connection {self.name}: chunks only apply to "
                    f"gather, not {kind!r}"
                )
            for edge, chunk in zip(self.edges, self.chunks):
                edge.cons_rate_override = chunk

    @property
    def is_collective(self) -> bool:
        """Non-FIFO with more than one branch (degenerates stay FIFO-like)."""
        return self.kind != self.FIFO and len(self.edges) > 1

    def assemble(self, branch_values: List[Sequence]) -> Sequence:
        """Combine per-branch consumed tokens (branch order) for the sink.

        ``gather`` concatenates (ndarray blocks of one dtype and token
        shape into one ndarray); a single branch passes through
        unchanged for every other kind.
        """
        if self.kind == self.GATHER:
            return concat_blocks(branch_values)
        if len(branch_values) != 1:
            raise GraphError(
                f"connection {self.name} ({self.kind}): cannot assemble "
                f"{len(branch_values)} branches at one sink port"
            )
        return _block(branch_values[0])

    def __repr__(self) -> str:
        return (
            f"Connection({self.name!r}, kind={self.kind}, "
            f"branches={len(self.edges)})"
        )


class DataflowGraph:
    """A coarse-grain dataflow graph (SDF or bounded-dynamic).

    The graph owns its actors and edges.  Ports may be left unconnected
    only if they are declared as *interface* ports via
    :meth:`mark_interface`; :meth:`validate` enforces this.
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._actors: Dict[str, Actor] = {}
        self._edges: List[Edge] = []
        #: per-actor edge lists (keyed by ``id(actor)``, in edge order) and
        #: the ``id``s of every connected source and sink port, kept by
        #: :meth:`_add_edge` so queries need not scan every edge
        self._in_edges: Dict[int, List[Edge]] = {}
        self._out_edges: Dict[int, List[Edge]] = {}
        self._connected_sources: set = set()
        self._connected_sinks: set = set()
        self._connections: List[Connection] = []
        self._interface_ports: set = set()

    # -- construction -----------------------------------------------------

    def add_actor(self, actor: Actor) -> Actor:
        if actor.name in self._actors:
            raise GraphError(f"duplicate actor name {actor.name!r}")
        actor.graph = self
        self._actors[actor.name] = actor
        return actor

    def actor(
        self,
        name: str,
        kernel: Optional[Callable] = None,
        cycles: Union[int, Callable[..., int]] = 1,
        params: Optional[Dict[str, Any]] = None,
    ) -> Actor:
        """Create, register and return a new actor."""
        return self.add_actor(Actor(name, kernel=kernel, cycles=cycles, params=params))

    def connect(
        self,
        source: Union[Port, Tuple[Actor, str]],
        sink: Union[Port, Tuple[Actor, str]],
        delay: int = 0,
        name: Optional[str] = None,
    ) -> Edge:
        """Create an edge between two ports (or ``(actor, port_name)`` pairs)."""
        src = source if isinstance(source, Port) else source[0].port(source[1])
        snk = sink if isinstance(sink, Port) else sink[0].port(sink[1])
        for port in (src, snk):
            if port.actor is None or port.actor.name not in self._actors:
                raise GraphError(
                    f"port {port.qualified_name} does not belong to this graph"
                )
        if id(src) in self._connected_sources:
            raise GraphError(
                f"output port {src.qualified_name} is already connected"
            )
        if id(snk) in self._connected_sinks:
            raise GraphError(
                f"input port {snk.qualified_name} is already connected"
            )
        edge = Edge(src, snk, delay=delay, name=name)
        self._add_edge(edge)
        self._connections.append(
            Connection(Connection.FIFO, [edge], name=edge.name)
        )
        return edge

    def _add_edge(self, edge: Edge) -> None:
        """Append ``edge`` and index it by actor and by port."""
        self._edges.append(edge)
        self._out_edges.setdefault(id(edge.src_actor), []).append(edge)
        self._in_edges.setdefault(id(edge.snk_actor), []).append(edge)
        self._connected_sources.add(id(edge.source))
        self._connected_sinks.add(id(edge.sink))

    # -- collective construction ------------------------------------------

    def _resolve_port(
        self, ref: Union[Port, Tuple[Actor, str], str]
    ) -> Port:
        if isinstance(ref, Port):
            port = ref
        elif isinstance(ref, str):
            actor_name, _, port_name = ref.rpartition(".")
            if not actor_name or actor_name not in self._actors:
                raise GraphError(
                    f"port reference {ref!r} must be 'actor.port' with an "
                    f"actor of this graph"
                )
            port = self._actors[actor_name].port(port_name)
        else:
            port = ref[0].port(ref[1])
        if port.actor is None or port.actor.name not in self._actors:
            raise GraphError(
                f"port {port.qualified_name} does not belong to this graph"
            )
        return port

    def _require_free_collective_port(self, port: Port) -> None:
        """A port joins at most one connection (checked across all edges)."""
        key = id(port)
        if key in self._connected_sources or key in self._connected_sinks:
            raise GraphError(
                f"port {port.qualified_name} is already connected "
                f"(a port belongs to at most one connection)"
            )

    def _add_collective(
        self,
        kind: str,
        sources: List[Port],
        sinks: List[Port],
        delays: Optional[List[int]],
        name: Optional[str],
        chunks: Optional[List[int]] = None,
    ) -> Connection:
        branches = max(len(sources), len(sinks))
        if branches < 1:
            raise GraphError(f"{kind} connection needs at least one branch")
        # Orientation follows the kind, not the branch count — a
        # single-branch gather still fans *in* (its shared port is the
        # sink, and the chunk belongs to the one producer).
        fan_in = kind == Connection.GATHER
        pairs = (
            [(src, sinks[0]) for src in sources]
            if fan_in
            else [(sources[0], snk) for snk in sinks]
        )
        for port in {id(p): p for p in sources + sinks}.values():
            if port.is_dynamic:
                raise GraphError(
                    f"{kind} connection: port {port.qualified_name} has a "
                    f"dynamic rate; collective connections require static "
                    f"rates (route dynamic traffic over FIFO connections)"
                )
            self._require_free_collective_port(port)
        shared = sinks[0] if fan_in else sources[0]
        fanned = sources if fan_in else sinks
        if len({id(p) for p in fanned}) != len(fanned):
            raise GraphError(
                f"{kind} connection {name or ''}: duplicate branch port"
            )
        if chunks is None and fan_in:
            rate = shared.rate
            if rate % branches:
                raise GraphError(
                    f"{kind} connection: rate {rate} of "
                    f"{shared.qualified_name} does not split evenly over "
                    f"{branches} branches; pass explicit chunks"
                )
            chunks = [rate // branches] * branches
        if chunks is not None and sum(chunks) != shared.rate:
            raise GraphError(
                f"{kind} connection: chunks {list(chunks)} sum to "
                f"{sum(chunks)}, expected the rate {shared.rate} of "
                f"{shared.qualified_name}"
            )
        if delays is None:
            delays = [0] * branches
        if len(delays) != branches:
            raise GraphError(
                f"{kind} connection: {len(delays)} delays for "
                f"{branches} branches"
            )
        edges = [
            Edge(
                src,
                snk,
                delay=delay,
                name=f"{name}[{index}]" if name else None,
            )
            for index, ((src, snk), delay) in enumerate(zip(pairs, delays))
        ]
        connection = Connection(kind, edges, name=name, chunks=chunks)
        for edge in edges:
            self._add_edge(edge)
        self._connections.append(connection)
        return connection

    def add_broadcast(
        self,
        source: Union[Port, Tuple[Actor, str]],
        sinks: List[Union[Port, Tuple[Actor, str]]],
        delays: Optional[List[int]] = None,
        name: Optional[str] = None,
    ) -> Connection:
        """One producer port fanned out to every sink as a full copy."""
        src = self._resolve_port(source)
        snks = [self._resolve_port(s) for s in sinks]
        return self._add_collective(
            Connection.BROADCAST, [src], snks, delays, name
        )

    def add_gather(
        self,
        sources: List[Union[Port, Tuple[Actor, str]]],
        sink: Union[Port, Tuple[Actor, str]],
        chunks: Optional[List[int]] = None,
        delays: Optional[List[int]] = None,
        name: Optional[str] = None,
    ) -> Connection:
        """k producer ports concatenated (branch order) into one sink."""
        srcs = [self._resolve_port(s) for s in sources]
        snk = self._resolve_port(sink)
        return self._add_collective(
            Connection.GATHER, srcs, [snk], delays, name, chunks=chunks
        )

    def mark_interface(self, port: Port) -> None:
        """Declare ``port`` as an external interface (may stay unconnected)."""
        self._interface_ports.add(id(port))

    def is_interface_port(self, port: Port) -> bool:
        """True when ``port`` was declared an external interface."""
        return id(port) in self._interface_ports

    # -- accessors ---------------------------------------------------------

    @property
    def actors(self) -> Tuple[Actor, ...]:
        return tuple(self._actors.values())

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return tuple(self._edges)

    @property
    def connections(self) -> Tuple[Connection, ...]:
        return tuple(self._connections)

    @property
    def collective_connections(self) -> Tuple[Connection, ...]:
        """Connections with true fan-out/fan-in (degenerates excluded)."""
        return tuple(c for c in self._connections if c.is_collective)

    def get_actor(self, name: str) -> Actor:
        try:
            return self._actors[name]
        except KeyError:
            raise GraphError(
                f"graph {self.name!r} has no actor {name!r}; "
                f"known actors: {sorted(self._actors)}"
            ) from None

    def edge_between(self, src_name: str, snk_name: str) -> Edge:
        """First edge from actor ``src_name`` to actor ``snk_name``."""
        for edge in self._edges:
            if edge.src_actor.name == src_name and edge.snk_actor.name == snk_name:
                return edge
        raise GraphError(f"no edge {src_name} -> {snk_name}")

    def in_edges(self, actor: Actor) -> List[Edge]:
        return list(self._in_edges.get(id(actor), ()))

    def out_edges(self, actor: Actor) -> List[Edge]:
        return list(self._out_edges.get(id(actor), ()))

    @property
    def is_dynamic(self) -> bool:
        """True if any edge in the graph carries a dynamic rate."""
        return any(e.is_dynamic for e in self._edges)

    @property
    def dynamic_edges(self) -> List[Edge]:
        return [e for e in self._edges if e.is_dynamic]

    # -- validation & structure -------------------------------------------

    def validate(self) -> None:
        """Check structural sanity; raises :class:`GraphError` on failure."""
        connected = set()
        for edge in self._edges:
            connected.add(id(edge.source))
            connected.add(id(edge.sink))
            if edge.source.token_bytes != edge.sink.token_bytes:
                raise GraphError(
                    f"edge {edge.name}: producer token size "
                    f"{edge.source.token_bytes}B != consumer token size "
                    f"{edge.sink.token_bytes}B"
                )
        for connection in self._connections:
            if connection.kind == Connection.GATHER:
                total = sum(e.cons_rate for e in connection.edges)
                rate = connection.edges[0].sink.rate
                if total != rate:
                    raise GraphError(
                        f"gather {connection.name}: branch chunks sum to "
                        f"{total}, sink rate is {rate}"
                    )
            if connection.kind != Connection.FIFO and any(
                e.is_dynamic for e in connection.edges
            ):
                raise GraphError(
                    f"{connection.kind} connection {connection.name} has a "
                    f"dynamic-rate branch; collectives must be static"
                )
        for actor in self._actors.values():
            for port in actor.ports:
                if id(port) in connected or id(port) in self._interface_ports:
                    continue
                raise GraphError(
                    f"port {port.qualified_name} is unconnected and not an "
                    f"interface port"
                )

    def topological_order(self, ignore_delay_edges: bool = True) -> List[Actor]:
        """Topological order of actors.

        Edges carrying at least one initial delay token are ignored by
        default (they are the iteration-feedback edges); this makes
        well-formed SDF graphs acyclic for ordering purposes.  Raises
        :class:`GraphError` if a zero-delay cycle exists.
        """
        indegree: Dict[str, int] = {name: 0 for name in self._actors}
        out: Dict[str, List[str]] = {name: [] for name in self._actors}
        for edge in self._edges:
            if ignore_delay_edges and edge.delay > 0:
                continue
            if edge.is_selfloop:
                raise GraphError(
                    f"zero-delay self-loop on actor {edge.src_actor.name!r} "
                    f"can never fire"
                )
            indegree[edge.snk_actor.name] += 1
            out[edge.src_actor.name].append(edge.snk_actor.name)
        ready = sorted(name for name, deg in indegree.items() if deg == 0)
        order: List[Actor] = []
        while ready:
            name = ready.pop(0)
            order.append(self._actors[name])
            for nxt in out[name]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
            ready.sort()
        if len(order) != len(self._actors):
            raise GraphError(
                f"graph {self.name!r} has a zero-delay cycle (deadlock)"
            )
        return order

    def copy_structure(self, name: Optional[str] = None) -> "DataflowGraph":
        """Deep-copy actors/ports/edges (kernels and params shared by reference)."""
        clone = DataflowGraph(name or f"{self.name}_copy")
        for actor in self._actors.values():
            new_actor = clone.actor(
                actor.name, kernel=actor.kernel, cycles=actor.cycles,
                params=dict(actor.params),
            )
            for port in actor.ports:
                new_actor.add_port(
                    Port(port.name, port.direction, port.rate, port.token_bytes)
                )
        edge_map: Dict[int, Edge] = {}
        for edge in self._edges:
            src = clone.get_actor(edge.src_actor.name).port(edge.source.name)
            snk = clone.get_actor(edge.snk_actor.name).port(edge.sink.name)
            new_edge = Edge(src, snk, delay=edge.delay, name=edge.name)
            clone._add_edge(new_edge)
            edge_map[id(edge)] = new_edge
            if edge.initial_tokens is not None:
                new_edge.set_initial_tokens(edge.initial_tokens)
        for connection in self._connections:
            members = [edge_map[id(e)] for e in connection.edges]
            clone._connections.append(
                Connection(
                    connection.kind,
                    members,
                    name=connection.name,
                    chunks=connection.chunks,
                )
            )
        for actor in self._actors.values():
            for port in actor.ports:
                if id(port) in self._interface_ports:
                    clone.mark_interface(clone.get_actor(actor.name).port(port.name))
        return clone

    # -- export -------------------------------------------------------------

    def to_dot(self) -> str:
        """Graphviz dot rendering (rates and delays annotated)."""
        lines = [f'digraph "{self.name}" {{', "  rankdir=LR;"]
        for actor in self._actors.values():
            shape = "box" if not actor.is_dynamic else "octagon"
            lines.append(f'  "{actor.name}" [shape={shape}];')
        for edge in self._edges:
            label = f"{edge.prod_rate!r}->{edge.cons_rate!r}"
            if edge.connection is not None and edge.connection.is_collective:
                label = f"{edge.connection.kind}[{edge.branch_index}] {label}"
            if edge.delay:
                label += f" d={edge.delay}"
            lines.append(
                f'  "{edge.src_actor.name}" -> "{edge.snk_actor.name}" '
                f'[label="{label}"];'
            )
        lines.append("}")
        return "\n".join(lines)

    def __iter__(self) -> Iterator[Actor]:
        return iter(self._actors.values())

    def __len__(self) -> int:
        return len(self._actors)

    def __repr__(self) -> str:
        return (
            f"DataflowGraph({self.name!r}, actors={len(self._actors)}, "
            f"edges={len(self._edges)})"
        )
