"""Replayable graph specifications for conformance campaigns.

A :class:`GraphSpec` is a *pure-data* description of one fuzzing case:
actors (with a chosen repetitions vector and execution times), edges
(with rate factors, delays and optional bounded-dynamic rates), and a
PE assignment.  Everything downstream — the dataflow graph, the
deterministic functional kernels, the partition — is derived from it by
:func:`build_case`, so a case can be serialised to JSON, replayed from a
single seed, and shrunk by structural surgery on the spec alone.

Consistency is **by construction**: the spec stores the repetitions
vector ``q`` and a per-edge rate factor ``k``; the concrete rates are
derived as ``prod = k * lcm(q_src, q_snk) / q_src`` and
``cons = k * lcm(q_src, q_snk) / q_snk`` so the SDF balance equations
hold for any topology (reconvergent paths and feedback included).

The derived kernels are pure functions of ``(actor, port, firing index,
consumed tokens)`` — a CRC of the lot — so every execution mode (single-
PE reference, SPI self-timed simulation, MPI baseline) must produce the
*identical* token streams, which the :class:`TokenTap` records for the
differential oracles in :mod:`repro.conformance.oracles`.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.dataflow.dynamic import DynamicRate
from repro.dataflow.graph import DataflowGraph, GraphError
from repro.mapping.partition import Partition
from repro.platform.pe import PEClass

__all__ = [
    "ActorSpec",
    "EdgeSpec",
    "ConnectionSpec",
    "GraphSpec",
    "SpecError",
    "TokenTap",
    "ConformanceCase",
    "build_case",
    "CONFORMANCE_ACCELERATOR",
]

#: the accelerator class heterogeneous conformance cases assign —
#: fixed constants so a replayed seed rebuilds the identical platform
CONFORMANCE_ACCELERATOR = PEClass(
    kind="accelerator",
    dispatch_cycles=20,
    cycles_per_element=0.5,
    resource_cost=2.0,
)

#: schema identifier stamped into serialised specs / replay files
SPEC_SCHEMA = "repro.conformance.spec/1"


class SpecError(ValueError):
    """Raised for structurally invalid graph specifications."""


@dataclass(frozen=True)
class ActorSpec:
    """One actor: its repetitions-vector entry and execution time."""

    name: str
    repetitions: int
    cycles: int

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("actor name must be non-empty")
        if self.repetitions < 1:
            raise SpecError(f"actor {self.name!r}: repetitions must be >= 1")
        if self.cycles < 1:
            raise SpecError(f"actor {self.name!r}: cycles must be >= 1")


@dataclass(frozen=True)
class EdgeSpec:
    """One edge, described relative to the repetitions vector.

    For static edges the concrete rates follow from ``rate_factor`` (see
    module docstring).  For dynamic edges both endpoints get a
    :class:`DynamicRate` bound and the producer emits
    ``rate_sequence[k % len(rate_sequence)]`` raw tokens on firing ``k``
    — a cyclo-static production pattern that stays inside the declared
    bound, exactly the shape VTS conversion packs.
    """

    src: str
    snk: str
    rate_factor: int = 1
    delay_tokens: int = 0
    token_bytes: int = 4
    dynamic: bool = False
    dyn_bound: int = 1
    dyn_min: int = 1
    rate_sequence: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rate_factor < 1:
            raise SpecError(f"edge {self.src}->{self.snk}: rate_factor >= 1")
        if self.delay_tokens < 0:
            raise SpecError(f"edge {self.src}->{self.snk}: delay_tokens >= 0")
        if self.token_bytes < 1:
            raise SpecError(f"edge {self.src}->{self.snk}: token_bytes >= 1")
        if self.dynamic:
            if self.delay_tokens:
                raise SpecError(
                    f"edge {self.src}->{self.snk}: dynamic edges cannot "
                    f"carry initial delay tokens (VTS restriction)"
                )
            if not 1 <= self.dyn_min <= self.dyn_bound:
                raise SpecError(
                    f"edge {self.src}->{self.snk}: need "
                    f"1 <= dyn_min <= dyn_bound"
                )
            if not self.rate_sequence:
                raise SpecError(
                    f"edge {self.src}->{self.snk}: dynamic edges need a "
                    f"rate_sequence"
                )
            for value in self.rate_sequence:
                if not self.dyn_min <= value <= self.dyn_bound:
                    raise SpecError(
                        f"edge {self.src}->{self.snk}: rate_sequence value "
                        f"{value} outside [{self.dyn_min}, {self.dyn_bound}]"
                    )


@dataclass(frozen=True)
class ConnectionSpec:
    """One collective connection: a hub port fanned over branch actors.

    ``hub`` is the shared endpoint (the producer of a broadcast, the
    consumer of a gather); ``branches`` are the fanned actors in branch
    order.  Rates are derived from one LCM over the hub's and every
    branch's repetitions, so each member edge satisfies its balance
    equation while the hub keeps a single shared port:

    * broadcast: hub produces ``k*L/q_hub`` per firing, branch ``i``
      consumes ``k*L/q_i`` (every branch sees the full token stream);
    * gather: branch ``i`` produces ``k*L/q_i``, the hub port consumes
      ``n * k*L/q_hub`` split into equal per-branch chunks.
    """

    kind: str
    hub: str
    branches: Tuple[str, ...]
    rate_factor: int = 1
    token_bytes: int = 4

    def __post_init__(self) -> None:
        if self.kind not in ("broadcast", "gather"):
            raise SpecError(
                f"connection kind {self.kind!r} not supported by the "
                f"conformance spec (broadcast | gather)"
            )
        if not self.branches:
            raise SpecError(f"{self.kind} connection needs >= 1 branch")
        if len(set(self.branches)) != len(self.branches):
            raise SpecError(f"{self.kind} connection: duplicate branches")
        if self.hub in self.branches:
            raise SpecError(
                f"{self.kind} connection: hub {self.hub!r} is a branch"
            )
        if self.rate_factor < 1:
            raise SpecError(f"{self.kind} connection: rate_factor >= 1")
        if self.token_bytes < 1:
            raise SpecError(f"{self.kind} connection: token_bytes >= 1")


@dataclass(frozen=True)
class GraphSpec:
    """A complete, replayable conformance case."""

    seed: int
    actors: Tuple[ActorSpec, ...]
    edges: Tuple[EdgeSpec, ...]
    n_pes: int
    assignment: Tuple[Tuple[str, int], ...]
    connections: Tuple[ConnectionSpec, ...] = ()
    #: requested blocking factor (the runtime clamps it to what the
    #: schedule admits; 1 = plain per-firing execution)
    batch: int = 1
    #: PE indices carrying :data:`CONFORMANCE_ACCELERATOR` instead of
    #: the default gpp class
    accelerators: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        names = [a.name for a in self.actors]
        if len(set(names)) != len(names):
            raise SpecError("duplicate actor names")
        if not self.actors:
            raise SpecError("spec needs at least one actor")
        known = set(names)
        for edge in self.edges:
            for endpoint in (edge.src, edge.snk):
                if endpoint not in known:
                    raise SpecError(f"edge endpoint {endpoint!r} unknown")
        for conn in self.connections:
            for endpoint in (conn.hub, *conn.branches):
                if endpoint not in known:
                    raise SpecError(
                        f"connection endpoint {endpoint!r} unknown"
                    )
        if self.n_pes < 1:
            raise SpecError("n_pes must be >= 1")
        if self.batch < 1:
            raise SpecError("batch must be >= 1")
        if len(set(self.accelerators)) != len(self.accelerators):
            raise SpecError("duplicate accelerator PE indices")
        for pe in self.accelerators:
            if not 0 <= pe < self.n_pes:
                raise SpecError(f"accelerator PE {pe} out of range")
        assigned = dict(self.assignment)
        for name in names:
            pe = assigned.get(name)
            if pe is None:
                raise SpecError(f"actor {name!r} has no PE assignment")
            if not 0 <= pe < self.n_pes:
                raise SpecError(f"actor {name!r}: PE {pe} out of range")

    # -- derived quantities ------------------------------------------------

    def repetitions(self) -> Dict[str, int]:
        """The repetitions vector of the built graph.

        Rates are derived from the actors' ``repetitions``, so those
        solve the balance equations, but not always in least terms: the
        smallest solution divides each connected component by the gcd
        of its entries.
        """
        parent = {a.name: a.name for a in self.actors}

        def root(name: str) -> str:
            while parent[name] != name:
                name = parent[name]
            return name

        links = [(e.src, e.snk) for e in self.edges] + [
            (c.hub, branch) for c in self.connections for branch in c.branches
        ]
        for u, v in links:
            parent[root(u)] = root(v)
        divisor: Dict[str, int] = {}
        for actor in self.actors:
            top = root(actor.name)
            divisor[top] = math.gcd(divisor.get(top, 0), actor.repetitions)
        return {
            a.name: a.repetitions // divisor[root(a.name)] for a in self.actors
        }

    def actor(self, name: str) -> ActorSpec:
        for spec in self.actors:
            if spec.name == name:
                return spec
        raise SpecError(f"no actor {name!r}")

    def resolved_rates(self, edge: EdgeSpec) -> Tuple[int, int]:
        """Concrete ``(prod, cons)`` rates satisfying the balance equation."""
        q_src = self.actor(edge.src).repetitions
        q_snk = self.actor(edge.snk).repetitions
        lcm = q_src * q_snk // math.gcd(q_src, q_snk)
        return edge.rate_factor * lcm // q_src, edge.rate_factor * lcm // q_snk

    def resolved_connection_rates(
        self, conn: ConnectionSpec
    ) -> Tuple[int, Tuple[int, ...]]:
        """``(hub port rate, per-branch rates)`` for a collective.

        One LCM over hub + branches makes every member edge balanced
        while the hub keeps one shared port: each member edge moves
        ``rate_factor * L`` tokens per graph iteration.
        """
        reps = [self.actor(conn.hub).repetitions] + [
            self.actor(b).repetitions for b in conn.branches
        ]
        lcm = reps[0]
        for q in reps[1:]:
            lcm = lcm * q // math.gcd(lcm, q)
        hub_rate = conn.rate_factor * lcm // reps[0]
        branch_rates = tuple(
            conn.rate_factor * lcm // q for q in reps[1:]
        )
        if conn.kind == "gather":
            # the hub port carries every branch's chunk per firing
            hub_rate *= len(conn.branches)
        return hub_rate, branch_rates

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": SPEC_SCHEMA,
            "seed": self.seed,
            "actors": [
                {"name": a.name, "repetitions": a.repetitions, "cycles": a.cycles}
                for a in self.actors
            ],
            "edges": [
                {
                    "src": e.src,
                    "snk": e.snk,
                    "rate_factor": e.rate_factor,
                    "delay_tokens": e.delay_tokens,
                    "token_bytes": e.token_bytes,
                    "dynamic": e.dynamic,
                    "dyn_bound": e.dyn_bound,
                    "dyn_min": e.dyn_min,
                    "rate_sequence": list(e.rate_sequence),
                }
                for e in self.edges
            ],
            "connections": [
                {
                    "kind": c.kind,
                    "hub": c.hub,
                    "branches": list(c.branches),
                    "rate_factor": c.rate_factor,
                    "token_bytes": c.token_bytes,
                }
                for c in self.connections
            ],
            "n_pes": self.n_pes,
            "assignment": {name: pe for name, pe in self.assignment},
            "batch": self.batch,
            "accelerators": list(self.accelerators),
        }

    @classmethod
    def from_json(cls, document: Dict[str, object]) -> "GraphSpec":
        if document.get("schema") != SPEC_SCHEMA:
            raise SpecError(
                f"not a conformance spec (schema {document.get('schema')!r})"
            )
        return cls(
            seed=int(document["seed"]),
            actors=tuple(
                ActorSpec(a["name"], int(a["repetitions"]), int(a["cycles"]))
                for a in document["actors"]
            ),
            edges=tuple(
                EdgeSpec(
                    src=e["src"],
                    snk=e["snk"],
                    rate_factor=int(e["rate_factor"]),
                    delay_tokens=int(e["delay_tokens"]),
                    token_bytes=int(e["token_bytes"]),
                    dynamic=bool(e["dynamic"]),
                    dyn_bound=int(e["dyn_bound"]),
                    dyn_min=int(e["dyn_min"]),
                    rate_sequence=tuple(int(v) for v in e["rate_sequence"]),
                )
                for e in document["edges"]
            ),
            connections=tuple(
                ConnectionSpec(
                    kind=c["kind"],
                    hub=c["hub"],
                    branches=tuple(c["branches"]),
                    rate_factor=int(c["rate_factor"]),
                    token_bytes=int(c["token_bytes"]),
                )
                for c in document.get("connections", [])
            ),
            n_pes=int(document["n_pes"]),
            assignment=tuple(
                sorted((name, int(pe)) for name, pe in document["assignment"].items())
            ),
            batch=int(document.get("batch", 1)),
            accelerators=tuple(
                int(pe) for pe in document.get("accelerators", [])
            ),
        )


class TokenTap:
    """Records the token traffic of every kernel firing, per run label.

    The derived kernels close over one shared tap; SPI insertion and
    VTS conversion both share kernels *by reference* when cloning graph
    structure, so the same tap observes every execution mode.  Call
    :meth:`begin` before each run to open a fresh log.

    The tap also holds each kernel's memo (see :meth:`memo`): every
    execution mode of a case repeats the same firings on the same
    inputs, so each firing's tokens and log row are derived once per
    case.
    """

    def __init__(self) -> None:
        self._run: str = ""
        self._logs: Dict[str, Dict[str, List[tuple]]] = {}
        self._memos: Dict[str, Dict[Tuple[int, str], tuple]] = {}

    def begin(self, run: str) -> None:
        self._run = run
        self._logs[run] = {}

    def memo(self, actor: str) -> Dict[Tuple[int, str], tuple]:
        """``actor``'s ``(firing index, digest text) -> (outputs, log
        row)`` memo, shared by every run of the case."""
        return self._memos.setdefault(actor, {})

    def record(self, actor: str, row: tuple) -> None:
        """Append ``actor``'s log row ``(firing index, ((port, input
        tokens), ...), ((port, output tokens), ...))`` to the open run,
        ports sorted by name."""
        if not self._run:
            return
        self._logs[self._run].setdefault(actor, []).append(row)

    def streams(self, run: str) -> Dict[str, List[tuple]]:
        return self._logs.get(run, {})

    @property
    def runs(self) -> Tuple[str, ...]:
        return tuple(self._logs)


def _make_kernel(actor_name: str, producers: List[tuple], tap: TokenTap):
    """Deterministic kernel: output tokens are CRCs of the firing context.

    ``producers`` is a list of ``(port_name, count_of)`` pairs where
    ``count_of(firing_index)`` gives the number of raw tokens to emit.
    Token ``j`` of port ``p`` on firing ``k`` is the CRC-32 of
    ``"<actor>:<p>:<k>:<j>:<digest>"``, where ``digest`` is the CRC-32 of
    the digest text ``"<port>=<v>,<v>,...|..."`` over the consumed ports
    in name order.  The outputs are a function of the firing index and
    that exact text (an int that turns into a float changes it), so the
    kernel memoises them, with the firing's log row, on the tap.
    """
    memo = tap.memo(actor_name)

    def kernel(firing_index: int, inputs: Dict[str, list]) -> Dict[str, list]:
        names = sorted(inputs)
        text = "|".join(
            [name + "=" + ",".join([str(v) for v in inputs[name]]) for name in names]
        )
        entry = memo.get((firing_index, text))
        if entry is None:
            suffix = f":{zlib.crc32(text.encode())}".encode()
            outputs: Dict[str, tuple] = {}
            for port_name, count_of in producers:
                prefix = zlib.crc32(
                    f"{actor_name}:{port_name}:{firing_index}:".encode()
                )
                outputs[port_name] = tuple(
                    [
                        zlib.crc32(b"%d%s" % (j, suffix), prefix)
                        for j in range(count_of(firing_index))
                    ]
                )
            row = (
                firing_index,
                tuple([(name, tuple(inputs[name])) for name in names]),
                tuple([(port, outputs[port]) for port in sorted(outputs)]),
            )
            entry = memo[(firing_index, text)] = (outputs, row)
        outputs, row = entry
        tap.record(actor_name, row)
        return {port: list(values) for port, values in outputs.items()}

    return kernel


@dataclass
class ConformanceCase:
    """A spec materialised into executable form."""

    spec: GraphSpec
    graph: DataflowGraph
    partition: Partition
    tap: TokenTap


def build_case(spec: GraphSpec) -> ConformanceCase:
    """Materialise a :class:`GraphSpec` into graph + partition + tap.

    Port names are derived from edge indices (``o<j>`` / ``i<j>``), so
    deleting an edge from the spec deletes its ports too — exactly what
    the shrinker needs to stay structurally valid.
    """
    tap = TokenTap()
    graph = DataflowGraph(f"conform_seed{spec.seed}")
    for actor_spec in spec.actors:
        graph.actor(actor_spec.name, cycles=actor_spec.cycles)

    # producers[actor] collects (port name, token-count function) pairs
    producers: Dict[str, List[tuple]] = {a.name: [] for a in spec.actors}
    for index, edge in enumerate(spec.edges):
        src = graph.get_actor(edge.src)
        snk = graph.get_actor(edge.snk)
        if edge.dynamic:
            q_src = spec.actor(edge.src).repetitions
            q_snk = spec.actor(edge.snk).repetitions
            if q_src != q_snk:
                raise SpecError(
                    f"edge {edge.src}->{edge.snk}: dynamic edges need equal "
                    f"repetitions at both endpoints (VTS converts them to "
                    f"rate 1/1)"
                )
            rate = DynamicRate(edge.dyn_bound, minimum=edge.dyn_min)
            out_port = src.add_output(
                f"o{index}", rate=rate, token_bytes=edge.token_bytes
            )
            in_port = snk.add_input(
                f"i{index}",
                rate=DynamicRate(edge.dyn_bound, minimum=edge.dyn_min),
                token_bytes=edge.token_bytes,
            )
            sequence = edge.rate_sequence
            producers[edge.src].append(
                (f"o{index}", lambda k, seq=sequence: seq[k % len(seq)])
            )
        else:
            prod, cons = spec.resolved_rates(edge)
            out_port = src.add_output(
                f"o{index}", rate=prod, token_bytes=edge.token_bytes
            )
            in_port = snk.add_input(
                f"i{index}", rate=cons, token_bytes=edge.token_bytes
            )
            producers[edge.src].append((f"o{index}", lambda k, n=prod: n))
        graph.connect(out_port, in_port, delay=edge.delay_tokens)

    # Collective connections get their own port namespace (``co<m>`` /
    # ``ci<m>``) so deleting one from the spec deletes its ports too.
    for index, conn in enumerate(spec.connections):
        hub = graph.get_actor(conn.hub)
        hub_rate, branch_rates = spec.resolved_connection_rates(conn)
        if conn.kind == "broadcast":
            hub.add_output(
                f"co{index}", rate=hub_rate, token_bytes=conn.token_bytes
            )
            producers[conn.hub].append((f"co{index}", lambda k, n=hub_rate: n))
            sinks = []
            for branch, rate in zip(conn.branches, branch_rates):
                graph.get_actor(branch).add_input(
                    f"ci{index}", rate=rate, token_bytes=conn.token_bytes
                )
                sinks.append(f"{branch}.ci{index}")
            graph.add_broadcast(
                f"{conn.hub}.co{index}", sinks, name=f"bcast{index}"
            )
        else:  # gather
            chunk = hub_rate // len(conn.branches)
            hub.add_input(
                f"ci{index}", rate=hub_rate, token_bytes=conn.token_bytes
            )
            sources = []
            for branch, rate in zip(conn.branches, branch_rates):
                graph.get_actor(branch).add_output(
                    f"co{index}", rate=rate, token_bytes=conn.token_bytes
                )
                producers[branch].append((f"co{index}", lambda k, n=rate: n))
                sources.append(f"{branch}.co{index}")
            graph.add_gather(
                sources,
                f"{conn.hub}.ci{index}",
                chunks=[chunk] * len(conn.branches),
                name=f"gather{index}",
            )

    for actor_spec in spec.actors:
        actor = graph.get_actor(actor_spec.name)
        actor.kernel = _make_kernel(
            actor_spec.name, producers[actor_spec.name], tap
        )
    try:
        graph.validate()
    except GraphError as exc:  # pragma: no cover - spec invariants prevent it
        raise SpecError(str(exc)) from exc

    partition = Partition(
        graph,
        spec.n_pes,
        dict(spec.assignment),
        pe_classes={
            pe: CONFORMANCE_ACCELERATOR for pe in spec.accelerators
        },
        batch_size=spec.batch,
    )
    return ConformanceCase(spec=spec, graph=graph, partition=partition, tap=tap)
