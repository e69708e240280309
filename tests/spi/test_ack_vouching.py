"""Judged ack edges that vouch for each other's redundancy.

``SpiSystem.compile`` starts resynchronization from the lowering's
pre-ack min-delay matrix plus one ``insert_edge_min_delay`` relaxation
per judged ack edge.  On generated cases no ack edge's redundancy ever
depends on another ack edge, so those cases cannot tell a missing
relaxation.  Here the pre-ack synchronization graph is built by hand so
that it does: PE0 sends on channel 1 before channel 0 while PE1 receives
channel 0 first, so the ack of channel 0 is implied by the path

    recv 0 -> recv 1 =(ack 1)=> send 1 -> send 0

whose only delay is ack 1's window, and by no path without ack 1.
"""

from dataclasses import replace

import pytest

from repro.dataflow import DataflowGraph
from repro.mapping.partition import Partition
from repro.mapping.resync import resynchronize
from repro.mapping.timed_graph import EdgeKind, TimedGraph
from repro.spi import SpiConfig, SpiSystem
from repro.spi.library import lower

CONFIG = SpiConfig(protocol_policy="always_ubs")
SEND0, SEND1 = "spi_send_0_A", "spi_send_1_A"
RECV0, RECV1 = "spi_recv_0_B1", "spi_recv_1_B2"


def fan_out():
    """A on PE0 feeds B1 and B2 on PE1 through channels 0 and 1."""
    graph = DataflowGraph("vouching_acks")
    a = graph.actor("A", kernel=lambda k, ins: {"o1": [k], "o2": [k]}, cycles=3)
    a.add_output("o1")
    a.add_output("o2")
    for name in ("B1", "B2"):
        actor = graph.actor(name, kernel=lambda k, ins: {}, cycles=3)
        actor.add_input("i")
    graph.connect((a, "o1"), (graph.get_actor("B1"), "i"))
    graph.connect((a, "o2"), (graph.get_actor("B2"), "i"))
    return graph, Partition.manual(graph, {"A": 0, "B1": 1, "B2": 1})


def _swap_sends(sync_graph):
    """The pre-ack graph with PE0's program order A, send 1, send 0."""
    order = {
        (SEND0, SEND1): (SEND1, SEND0),
        ("A", SEND0): ("A", SEND1),
        (SEND1, "A"): (SEND0, "A"),
    }
    edges = []
    for edge in sync_graph.edges:
        if edge.kind == EdgeKind.INTRA and (edge.src, edge.snk) in order:
            src, snk = order[edge.src, edge.snk]
            edge = replace(edge, src=src, snk=snk)
        edges.append(edge)
    return TimedGraph.from_records(sync_graph.name, sync_graph.vertices, edges)


def _edges(edges):
    return sorted((e.src, e.snk, e.delay, e.kind) for e in edges)


@pytest.fixture
def vouching():
    graph, partition = fan_out()
    lowering = lower(graph, partition)
    pre_ack = lowering.sync_graph
    # the program orders the test assumes, before the swap
    intra = _edges(e for e in pre_ack.edges if e.kind == EdgeKind.INTRA)
    assert (SEND0, SEND1, 0, EdgeKind.INTRA) in intra
    assert (RECV0, RECV1, 0, EdgeKind.INTRA) in intra
    # the compile reads the hand-built graph and derives its matrix
    lowering.__dict__["sync_graph"] = _swap_sends(pre_ack)
    system = SpiSystem.compile(graph, partition, CONFIG, lowering=lowering)
    return lowering, system


def test_an_ack_redundant_only_through_another_ack_is_removed(vouching):
    lowering, system = vouching
    acks = [e for e in system.sync_graph.edges if e.kind == EdgeKind.ACK]
    assert sorted((e.src, e.snk) for e in acks) == [
        (RECV0, SEND0), (RECV1, SEND1),
    ]
    (removed,) = system.resync_result.removed
    assert (removed.src, removed.snk, removed.kind) == (
        RECV0, SEND0, EdgeKind.ACK,
    )
    enabled = {
        name: plan.acks_enabled for name, plan in system.channel_plans.items()
    }
    assert len(enabled) == 2 and enabled.pop(removed.origin_edge) is False
    assert list(enabled.values()) == [True]


def test_relaxed_base_matrix_equals_a_fresh_matrix(vouching):
    lowering, system = vouching
    fresh = resynchronize(system.sync_graph)
    result = system.resync_result
    assert _edges(result.removed) == _edges(fresh.removed)
    assert _edges(result.added) == _edges(fresh.added)
    assert _edges(result.graph.edges) == _edges(fresh.graph.edges)
    assert (result.cost_before, result.cost_after) == (
        fresh.cost_before, fresh.cost_after,
    )
    # the pre-ack matrix alone cannot see the vouching path
    base = lowering.min_delays
    unrelaxed = resynchronize(system.sync_graph, base)
    assert not any(e.kind == EdgeKind.ACK for e in unrelaxed.removed)
