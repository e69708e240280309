"""Variable Token Size (VTS) modelling — the paper's §3.

A dynamic-rate edge moves a *varying* number of raw tokens per firing.
VTS conversion repacks those raw tokens into a **single packed token of
variable size** per firing, so that the converted graph has *static*
rates (rate 1 at every converted port) and the full SDF toolbox —
repetitions vector, PASS, buffer bounds — applies again.

Bounded memory follows from the declared rate bounds:

* ``b_max(e)``  — maximum bytes in one packed token on edge ``e``
  (rate bound × raw token bytes, paper §3);
* ``c(e) = c_sdf(e) * b_max(e)``  — bound on the total bytes of packed
  tokens coexisting on ``e`` (paper **eq. 1**);
* ``B(e) = (G + delay(e)) * c(e)``  — bound on the IPC buffer for ``e``
  in a self-timed implementation (paper **eq. 2**), where ``G`` is the
  total delay on a minimum-delay directed *feedback* path from
  ``snk(e)`` back to ``src(e)``.  (The feedback path is what throttles
  the producer; without one the self-timed producer can run ahead
  unboundedly and SPI must fall back to the UBS protocol — see
  :mod:`repro.spi.protocols`.)  The paper's inline formula is rendered
  ambiguously in the available text ("G src(e) snk(e)"); we implement
  the standard Sriram–Bhattacharyya feedback-cycle bound, which is the
  result the formula specialises.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dataflow.buffers import sdf_buffer_bounds
from repro.dataflow.dynamic import DynamicRate
from repro.dataflow.graph import DataflowGraph, Edge, GraphError
from repro.dataflow.sdf import repetitions_vector

__all__ = [
    "PackedToken",
    "VtsEdgeInfo",
    "VtsConversion",
    "vts_convert",
    "minimum_feedback_delay",
]


@dataclass(frozen=True, eq=False)
class PackedToken:
    """A variable-size packed token: ``size`` raw tokens in one unit.

    The SPI_dynamic wire format carries ``size`` in the message header so
    the receiver never needs delimiter scanning (paper §3: a header field
    "is much more efficient" than a delimiter on FPGA targets).

    ``payload`` is the raw token block: the producer's ndarray, kept
    without a copy and made read-only like every ndarray block on the
    data path, or a tuple of any other sequence's tokens.  Packed tokens
    compare by identity, so an ndarray payload never meets ``==`` or
    ``hash``.
    """

    payload: Sequence
    raw_token_bytes: int

    @property
    def size(self) -> int:
        """Number of raw tokens packed inside."""
        return len(self.payload)

    @property
    def nbytes(self) -> int:
        """Payload size in bytes."""
        return self.size * self.raw_token_bytes

    @classmethod
    def pack(cls, raw_tokens: Sequence, raw_token_bytes: int) -> "PackedToken":
        if isinstance(raw_tokens, np.ndarray):
            raw_tokens.setflags(False)  # write=False; positional is cheaper
            return cls(raw_tokens, raw_token_bytes)
        return cls(tuple(raw_tokens), raw_token_bytes)

    def unpack(self) -> List:
        return list(self.payload)


@dataclass
class VtsEdgeInfo:
    """Static bounds attached to one VTS-converted edge."""

    edge_name: str
    producer_bound: int
    consumer_bound: int
    raw_token_bytes: int
    c_sdf: int

    @property
    def b_max_bytes(self) -> int:
        """Maximum bytes in one packed token on this edge (paper §3)."""
        return max(self.producer_bound, self.consumer_bound) * self.raw_token_bytes

    @property
    def c_bytes(self) -> int:
        """Paper eq. 1: total bytes of coexisting packed tokens."""
        return self.c_sdf * self.b_max_bytes


@dataclass
class VtsConversion:
    """Result of converting a bounded-dynamic graph to pure SDF.

    Attributes
    ----------
    graph:
        The converted graph: every formerly dynamic port now has static
        rate 1 and ``token_bytes`` equal to the packed-token byte bound.
    edge_info:
        ``edge name -> VtsEdgeInfo`` for every converted (formerly
        dynamic) edge.
    original:
        The source graph (unmodified).
    repetitions:
        The converted graph's repetitions vector (``actor name ->
        count``), computed once for eq. 1.
    """

    graph: DataflowGraph
    edge_info: Dict[str, VtsEdgeInfo]
    original: DataflowGraph
    repetitions: Dict[str, int] = field(default_factory=dict, repr=False)
    _c_sdf: Dict[int, int] = field(default_factory=dict, repr=False)

    def ipc_buffer_bound_bytes(self, edge: Edge) -> Optional[int]:
        """Paper eq. 2: ``B(e) = (G + delay(e)) * c(e)``.

        Returns ``None`` when no directed feedback path from ``snk(e)``
        to ``src(e)`` exists — the buffer is then unbounded under pure
        self-timed execution and the UBS protocol must be used.
        """
        info = self.edge_info[edge.name]
        feedback = minimum_feedback_delay(self.graph, edge)
        if feedback is None:
            return None
        return (feedback + edge.delay) * info.c_bytes


def minimum_feedback_delay(graph: DataflowGraph, edge: Edge) -> Optional[int]:
    """Minimum total delay on a directed path ``snk(e) -> src(e)``.

    Dijkstra over actor nodes with edge delays as non-negative weights.
    Returns ``None`` when no feedback path exists.
    """
    source = edge.snk_actor.name
    target = edge.src_actor.name
    if source == target:
        return 0
    dist: Dict[str, int] = {source: 0}
    heap: List = [(0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node == target:
            return d
        if d > dist.get(node, d):
            continue
        for out in graph.out_edges(graph.get_actor(node)):
            nxt = out.snk_actor.name
            nd = d + out.delay
            if nd < dist.get(nxt, nd + 1):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return dist.get(target)


def _unpack_inputs(inputs: Dict[str, list], dynamic_inputs) -> Dict[str, list]:
    """Raw tokens per port: a single packed ndarray block is handed over
    as it is, other packed tokens are unpacked into one list, and static
    ports pass through."""
    raw: Dict[str, list] = {}
    for port_name, values in inputs.items():
        if port_name not in dynamic_inputs:
            raw[port_name] = values
            continue
        if len(values) == 1 and isinstance(values[0], PackedToken) and (
            isinstance(values[0].payload, np.ndarray)
        ):
            raw[port_name] = values[0].payload
            continue
        tokens: List = []
        for value in values:
            if isinstance(value, PackedToken):
                tokens.extend(value.unpack())
            elif value is not None:
                tokens.append(value)
        raw[port_name] = tokens
    return raw


class _RawInputs:
    """One converted actor's raw inputs of its latest firing.

    The runtime hands a firing's consumed dict to the cycle model at
    start and the same dict to the kernel at finish, so both adapters
    read the unpacked tokens from this one slot, keyed by the dict's
    identity: each firing is unpacked once.  The slot keeps the dict
    alive, so no other dict can take its identity while it is cached.
    """

    __slots__ = ("dynamic_inputs", "_consumed", "_raw")

    def __init__(self, dynamic_inputs) -> None:
        self.dynamic_inputs = dynamic_inputs
        self._consumed: Optional[Dict[str, list]] = None
        self._raw: Dict[str, list] = {}

    def __call__(self, inputs: Dict[str, list]) -> Dict[str, list]:
        if inputs is not self._consumed:
            self._raw = _unpack_inputs(inputs, self.dynamic_inputs)
            self._consumed = inputs
        return self._raw


def _wrap_kernel(orig_actor, raw_inputs: _RawInputs, dynamic_outputs):
    """Adapter: packed tokens in -> original raw kernel -> packed out."""
    if orig_actor.kernel is None:
        return None

    def adapted(firing_index: int, inputs: Dict[str, list]) -> Dict[str, list]:
        raw_outputs = orig_actor.kernel(firing_index, raw_inputs(inputs))
        outputs: Dict[str, list] = {}
        for port_name, values in raw_outputs.items():
            if port_name in dynamic_outputs:
                bound, minimum, raw_bytes = dynamic_outputs[port_name]
                if not minimum <= len(values) <= bound:
                    raise GraphError(
                        f"actor {orig_actor.name!r} produced {len(values)} "
                        f"raw tokens on dynamic port {port_name!r}, outside "
                        f"the declared range [{minimum}, {bound}]"
                    )
                outputs[port_name] = [PackedToken.pack(values, raw_bytes)]
            else:
                outputs[port_name] = values
        return outputs

    return adapted


def _wrap_cycles(orig_actor, raw_inputs: _RawInputs):
    """Adapter: evaluate a data-dependent cycle model on raw tokens."""
    if not callable(orig_actor.cycles):
        return orig_actor.cycles

    def adapted(firing_index: int, inputs: Dict[str, list]) -> int:
        return orig_actor.cycles(firing_index, raw_inputs(inputs or {}))

    return adapted


def vts_convert(graph: DataflowGraph, name: Optional[str] = None) -> VtsConversion:
    """Convert a bounded-dynamic dataflow graph into a pure SDF graph.

    Every dynamic port (production or consumption) becomes a static port
    of **rate 1** whose token is a packed token with byte bound
    ``rate bound × raw token bytes`` — exactly the transformation of the
    paper's figure 1.  Static ports are kept as they are.

    The converted graph must be sample-rate consistent (this is the
    paper's applicability condition: "If by application of the above
    principle to all possible edges, a consistent graph is obtained, then
    bounded memory for all the edge buffers can be guaranteed"); an
    inconsistent result propagates ``InconsistentGraphError``.

    Raises :class:`GraphError` if the graph has no dynamic edges (the
    conversion would be an identity — call SDF analysis directly).
    """
    if not graph.is_dynamic:
        raise GraphError(
            f"graph {graph.name!r} has no dynamic edges; VTS conversion "
            f"is only meaningful for bounded-dynamic graphs"
        )
    for edge in graph.dynamic_edges:
        if edge.delay > 0:
            raise GraphError(
                f"edge {edge.name}: initial delay tokens on dynamic edges "
                f"are not supported by VTS conversion (pack them into the "
                f"first firing instead)"
            )
    converted = graph.copy_structure(name or f"{graph.name}_vts")
    edge_info: Dict[str, VtsEdgeInfo] = {}

    for orig_edge, new_edge in zip(graph.edges, converted.edges):
        if not orig_edge.is_dynamic:
            continue
        src_rate = orig_edge.source.rate
        snk_rate = orig_edge.sink.rate
        producer_bound = (
            src_rate.bound if isinstance(src_rate, DynamicRate) else src_rate
        )
        consumer_bound = (
            snk_rate.bound if isinstance(snk_rate, DynamicRate) else snk_rate
        )
        raw_bytes = orig_edge.token_bytes
        b_max = max(producer_bound, consumer_bound) * raw_bytes
        new_edge.source.rate = 1
        new_edge.sink.rate = 1
        new_edge.source.token_bytes = b_max
        new_edge.sink.token_bytes = b_max
        edge_info[new_edge.name] = VtsEdgeInfo(
            edge_name=new_edge.name,
            producer_bound=producer_bound,
            consumer_bound=consumer_bound,
            raw_token_bytes=raw_bytes,
            c_sdf=0,  # filled below, needs the converted graph's reps
        )

    # Wrap the kernels and cycle models of actors with dynamic ports so
    # that they keep operating on raw tokens: the adapter unpacks each
    # incoming packed token, invokes the original kernel, and repacks
    # each dynamic output's raw tokens into one size-checked packed
    # token.  This is exactly the paper's repacking: "VTS provides a
    # mechanism to repack tokens in such a way that the new packed
    # tokens flow at static rates".
    for orig_actor in graph.actors:
        if not orig_actor.is_dynamic:
            continue
        new_actor = converted.get_actor(orig_actor.name)
        dynamic_inputs = {
            p.name for p in orig_actor.input_ports if p.is_dynamic
        }
        dynamic_outputs = {
            p.name: (
                p.rate.bound if isinstance(p.rate, DynamicRate) else p.rate,
                p.rate.minimum if isinstance(p.rate, DynamicRate) else 1,
                p.token_bytes,
            )
            for p in orig_actor.output_ports
            if p.is_dynamic
        }
        raw_inputs = _RawInputs(dynamic_inputs)
        new_actor.kernel = _wrap_kernel(orig_actor, raw_inputs, dynamic_outputs)
        new_actor.cycles = _wrap_cycles(orig_actor, raw_inputs)

    # eq. 1 needs c_sdf(e), "computed on the graph after VTS conversion,
    # so it is computed on a pure SDF graph".
    reps = repetitions_vector(converted)
    c_sdf = sdf_buffer_bounds(converted, method="simulate", repetitions=reps)
    for new_edge in converted.edges:
        if new_edge.name in edge_info:
            edge_info[new_edge.name].c_sdf = c_sdf[new_edge.edge_id]

    return VtsConversion(
        graph=converted,
        edge_info=edge_info,
        original=graph,
        repetitions=reps,
        _c_sdf=c_sdf,
    )
