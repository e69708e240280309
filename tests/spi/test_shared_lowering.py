"""One lowering serves every SPI configuration of a case.

A :class:`~repro.spi.library.Lowering` holds the config-independent half
of the compile: the task table of its schedule, ``G_ipc``, the pre-ack
synchronization graph with its min-delay matrix, the batch clamp and
the analysis cache's structure key.  Compiling the oracle run matrix on
one lowering, in any order, must equal compiling each configuration on
a fresh lowering; the compiled systems must not share a mutable graph;
and the per-lowering work must happen once per case, not once per
configuration.
"""

import itertools
import sys

import numpy as np
import pytest

from repro.conformance import build_case, generate_spec
from repro.conformance.oracles import _spi_run_matrix
from repro.dataflow.graph import DataflowGraph
from repro.mapping.graph_arrays import GraphArrays, min_delay_matrix
from repro.mapping.resync import resynchronize
from repro.mapping.timed_graph import EdgeKind, TimedEdge
from repro.mpi.baseline import MpiSystem
from repro.service import AnalysisCache
from repro.spi import SpiConfig, SpiSystem, lower

MATRIX = _spi_run_matrix(quick=False)
#: seed 25 judges two ack edges and resynchronization adds an edge;
#: seeds 1, 7 and 28 are dynamic (VTS-converted)
SEEDS = list(range(1, 13)) + [25, 28]


def _edges(edges):
    return [
        (e.src, e.snk, e.delay, e.kind, e.origin_edge)
        for e in edges
    ]


def _outcome(system):
    """What a compile decided, as plain values."""
    resync = system.resync_result
    return (
        _edges(system.sync_graph.edges),
        {
            name: (
                plan.send_actor,
                plan.recv_actor,
                plan.src_pe,
                plan.dst_pe,
                plan.dynamic,
                plan.protocol,
                plan.capacity_messages,
                plan.message_payload_bytes,
                plan.acks_enabled,
            )
            for name, plan in system.channel_plans.items()
        },
        None
        if resync is None
        else (
            _edges(resync.graph.edges),
            _edges(resync.removed),
            _edges(resync.added),
            resync.cost_before,
            resync.cost_after,
            resync.mcm_before,
            resync.mcm_after,
        ),
        (system._analysis_key, system._structure_key),
        system.batch,
    )


def _compile(case, config, lowering):
    return SpiSystem.compile(
        case.graph,
        case.partition,
        config,
        cache=AnalysisCache(),
        lowering=lowering,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_shared_lowering_equals_fresh_lowerings_in_every_order(seed):
    case = build_case(generate_spec(seed))
    fresh = {
        label: _outcome(
            _compile(case, config, lower(case.graph, case.partition))
        )
        for label, config in MATRIX
    }
    for order in itertools.permutations(MATRIX):
        lowering = lower(case.graph, case.partition)
        for label, config in order:
            assert _outcome(_compile(case, config, lowering)) == fresh[label], (
                seed,
                [label for label, _ in order],
            )


def test_systems_of_one_lowering_share_no_graph():
    case = build_case(generate_spec(25))
    lowering = lower(case.graph, case.partition)
    first = _compile(case, SpiConfig(), lowering)
    second = _compile(case, SpiConfig(protocol_policy="always_ubs"), lowering)
    base = list(lowering.sync_graph.edges)
    second_edges = list(second.sync_graph.edges)
    assert any(e.kind == EdgeKind.ACK for e in first.sync_graph.edges)
    assert all(e.kind != EdgeKind.ACK for e in base)
    vertex = first.sync_graph.vertices[0].name
    first.sync_graph.add_edge(TimedEdge(vertex, vertex, delay=1))
    assert list(second.sync_graph.edges) == second_edges
    assert list(lowering.sync_graph.edges) == base
    assert list(lowering.ipc_graph.edges) == base
    _, rho = lowering.min_delays
    assert not rho.flags.writeable


@pytest.mark.parametrize("seed", [1, 25, 28, 33])
def test_resync_starts_from_the_matrix_of_the_graph_with_acks(
    seed, monkeypatch
):
    """The base matrix plus one relaxation per ack edge is the min-delay
    matrix of the synchronization graph resynchronization judges."""
    import repro.spi.runtime as runtime

    judged = []

    def recording(graph, rho=None):
        judged.append((graph, rho))
        return resynchronize(graph, rho)

    monkeypatch.setattr(runtime, "resynchronize", recording)
    case = build_case(generate_spec(seed))
    lowering = lower(case.graph, case.partition)
    for config in (SpiConfig(), SpiConfig(protocol_policy="always_ubs")):
        SpiSystem.compile(case.graph, case.partition, config, lowering=lowering)
    for graph, rho in judged:
        assert any(e.kind == EdgeKind.ACK for e in graph.edges)
        arrays = GraphArrays(graph)
        expected = min_delay_matrix(
            arrays.n, arrays.edge_src, arrays.edge_snk, arrays.edge_delay
        )
        assert np.array_equal(rho, expected)


def _count_everywhere(monkeypatch, module, name, calls):
    """Count the calls of ``module.name`` under every name bound to it."""
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and (
            getattr(loaded, name, None) is original
        ):
            monkeypatch.setattr(loaded, name, counting)


def test_config_independent_work_runs_once_per_lowering(monkeypatch):
    import repro.dataflow.hsdf as hsdf
    import repro.mapping.graph_arrays as graph_arrays
    import repro.mapping.sync_graph as sync_graph

    calls = {
        "derive_sync_graph": 0,
        "min_delay_matrix": 0,
        "hsdf_expand": 0,
        "GraphArrays": 0,
        "hsdf connect": 0,
    }
    _count_everywhere(monkeypatch, sync_graph, "derive_sync_graph", calls)
    _count_everywhere(monkeypatch, graph_arrays, "min_delay_matrix", calls)
    _count_everywhere(monkeypatch, hsdf, "hsdf_expand", calls)

    arrays_init = GraphArrays.__init__
    connect = DataflowGraph.connect

    def counting_arrays(self, graph):
        # Howard's MCM builds its own arrays of each graph it solves.
        if sys._getframe(1).f_globals["__name__"] != "repro.mapping.mcm":
            calls["GraphArrays"] += 1
        arrays_init(self, graph)

    def counting_connect(self, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == hsdf.__name__:
            calls["hsdf connect"] += 1
        return connect(self, *args, **kwargs)

    monkeypatch.setattr(GraphArrays, "__init__", counting_arrays)
    monkeypatch.setattr(DataflowGraph, "connect", counting_connect)

    case = build_case(generate_spec(25))
    lowering = lower(case.graph, case.partition)
    assert not lowering.schedule.homogeneous
    cache = AnalysisCache()
    systems = [
        SpiSystem.compile(
            case.graph, case.partition, config, cache=cache, lowering=lowering
        )
        for _, config in MATRIX
    ]
    MpiSystem.compile(case.graph, case.partition, lowering=lowering)
    assert systems[0].resync_result.added
    assert calls == {
        "derive_sync_graph": 1,
        "min_delay_matrix": 1,
        "hsdf_expand": 0,
        "GraphArrays": 1,
        "hsdf connect": 0,
    }


@pytest.mark.parametrize("seed", range(1, 41))
def test_messages_per_iteration_are_the_send_repetitions(seed):
    """A channel's messages per iteration, read from the repetitions
    vector, equal a count of the send actor's tasks in the schedule."""
    case = build_case(generate_spec(seed))
    lowering = lower(case.graph, case.partition)
    schedule = lowering.schedule
    for _, pair, _ in lowering.insertion.channels.values():
        if pair.send in schedule.task_pe:
            scanned = 1
        else:
            prefix = pair.send + "#"
            scanned = sum(1 for task in schedule.task_pe if task.startswith(prefix))
        assert schedule.repetitions[pair.send] == scanned
