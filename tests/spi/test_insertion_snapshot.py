"""Snapshot of the SPI-inserted graph for a fixed set of cases.

The goldens pin what the inserted graph *computes* (trace rows, message
counts, makespans); this test pins what it *is*: actor names, cycle
models and params in order, port rates and token sizes, edge names,
endpoints, delays, initial tokens and order, connection kinds, members
and chunks, the ``channels`` and ``collective_sends`` tables and the
extended assignment.  A rewrite of the insertion must leave every
digest unchanged.

The generator seeds (``collective_prob=0.7``) cover every collective
lowering: a broadcast with local and remote branches (3, 12, 57), an
all-local broadcast on a multi-PE partition (41), a single-branch
gather (16), a multi-branch gather with remote branches (25) and an
all-local gather (21); seed 28 of the default shape and the LPC system
are VTS-converted.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.apps.lpc import build_parallel_error_graph, frame_stream
from repro.apps.particle_filter import (
    CrackGrowthModel,
    build_particle_filter_graph,
    simulate_crack_history,
)
from repro.conformance import build_case, generate_spec
from repro.conformance.generator import GraphShape
from repro.spi import lower


def _value(value):
    """A JSON-able, address-free rendering of a token or param value."""
    if isinstance(value, np.ndarray):
        return ["ndarray", str(value.dtype), value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_value(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return repr(value)


def _cycles(actor):
    return actor.cycles if isinstance(actor.cycles, int) else "callable"


def snapshot(insertion) -> dict:
    """The structure of one SPI insertion as plain values."""
    graph = insertion.graph
    return {
        "actors": [
            [
                actor.name,
                _cycles(actor),
                [[key, _value(value)] for key, value in actor.params.items()],
                [
                    [port.name, port.direction, port.rate, port.token_bytes]
                    for port in actor.ports
                ],
            ]
            for actor in graph.actors
        ],
        "edges": [
            [
                edge.name,
                f"{edge.src_actor.name}.{edge.source.name}",
                f"{edge.snk_actor.name}.{edge.sink.name}",
                edge.delay,
                edge.prod_rate,
                edge.cons_rate,
                _value(edge.initial_tokens),
            ]
            for edge in graph.edges
        ],
        "connections": [
            [
                conn.name,
                conn.kind,
                [edge.name for edge in conn.edges],
                list(conn.chunks) if conn.chunks is not None else None,
            ]
            for conn in graph.connections
        ],
        "channels": [
            [origin, ipc.name, pair.send, pair.recv, dynamic]
            for origin, (ipc, pair, dynamic) in insertion.channels.items()
        ],
        "collective_sends": [
            [send, group.name, list(group.remote_origins)]
            for send, group in insertion.collective_sends.items()
        ],
        "assignment": sorted(insertion.partition.assignment.items()),
    }


def _digest(insertion) -> str:
    text = json.dumps(snapshot(insertion), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _lpc():
    frames = frame_stream(total_samples=2 * 256, frame_size=256)
    return build_parallel_error_graph(frames, order=8, n_units=2)


def _pf(collectives):
    model = CrackGrowthModel()
    _, observations = simulate_crack_history(model, steps=4)
    return build_particle_filter_graph(
        model, observations, n_particles=40, n_pes=2,
        collectives=collectives,
    )


def _seed(seed, shape):
    return build_case(generate_spec(seed, shape))


COLLECTIVE = GraphShape(collective_prob=0.7)

CASES = {
    "lpc_3pe": _lpc,
    "pf_2pe_collectives": lambda: _pf(True),
    "pf_2pe_p2p": lambda: _pf(False),
    "vts_seed28": lambda: _seed(28, GraphShape()),
    **{
        f"collective_seed{seed}": (lambda seed=seed: _seed(seed, COLLECTIVE))
        for seed in (3, 12, 16, 21, 25, 41, 57)
    },
}

DIGESTS = {
    "lpc_3pe": (
        "a85fffb2153adddf913d0385ba69a2414fa487f758edf238f8749a2cf8c14f60"
    ),
    "pf_2pe_collectives": (
        "636cec87fd2e0a5d5056785fb23a3adb108119f50b5eacc28a6e09e5869d8034"
    ),
    "pf_2pe_p2p": (
        "7ae503b0ed31e07b4a6e612490317a8bf068ddc31d6a83b7e46ffc82c724733d"
    ),
    "vts_seed28": (
        "29dfcec9a9cf55461b8558a5b21348af2be04fed21d57b2dd28c2843eac34983"
    ),
    "collective_seed3": (
        "b45d5441e56e17a281c89bd8fdbb6c8e02ed3fe065c623c64abf54864248d1a3"
    ),
    "collective_seed12": (
        "11a53ac08b1918c54cfd623de1369db43136fca0ee9d69d8414af605dbeef7d3"
    ),
    "collective_seed16": (
        "ad54f07e0f8678db531c4a8852eb0a7732d679e5b9465e8a70119d5306b92f46"
    ),
    "collective_seed21": (
        "28c51570e208347068fabfe5e7d789dac73e809c95992829aea87b250ffdc6d1"
    ),
    "collective_seed25": (
        "c1371b1292f1ab3cfe9bc26b50d1bba5027b79e43334284aa625c04a37e35bc1"
    ),
    "collective_seed41": (
        "0467af7769cb3726a0379e29db36b764666c300ad3c8e645ce390791a1e5941b"
    ),
    "collective_seed57": (
        "580f927c86d724404e212eada7d5f22a1368fafb3e09b2bd8a9f30bbdf662083"
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_insertion_digest(name):
    built = CASES[name]()
    insertion = lower(built.graph, built.partition).insertion
    assert _digest(insertion) == DIGESTS[name]


def test_seeds_cover_every_collective_lowering():
    """The seeds keep the shapes the module docstring names."""
    shapes = set()
    for name in CASES:
        if not name.startswith("collective_seed"):
            continue
        case = CASES[name]()
        pe = case.partition.assignment
        for conn in case.graph.connections:
            if conn.kind == "fifo":
                continue
            fan_out = conn.kind == "broadcast"
            hub = conn.edges[0].source if fan_out else conn.edges[0].sink
            remote = sum(
                pe[(e.sink if fan_out else e.source).actor.name]
                != pe[hub.actor.name]
                for e in conn.edges
            )
            shapes.add((conn.kind, len(conn.edges) > 1, remote > 0,
                        remote == len(conn.edges)))
    assert ("broadcast", True, True, False) in shapes     # mixed fan-out
    assert ("broadcast", True, False, False) in shapes    # all-local
    assert ("gather", False, True, True) in shapes        # single branch
    assert ("gather", True, True, False) in shapes        # multi-branch
    assert ("gather", True, False, False) in shapes       # all-local
