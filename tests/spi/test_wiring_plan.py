"""The wiring plan and the graph fingerprint, each built once per lowering.

A :class:`~repro.spi.library.Lowering` caches the run-time wiring of its
insertion and the analysis cache's graph fingerprint; the three SPI
configurations and the MPI baseline of a conformance case compile from
one lowering, so each is derived once per case.  The plan must wire
exactly what a scan of the inserted graph gives, and keys derived from
the cached fingerprint must equal the published ones byte for byte.
"""

from dataclasses import replace

import pytest

from repro.conformance import GraphShape, build_case, generate_spec
from repro.mpi.baseline import MpiSystem
from repro.service import AnalysisCache
from repro.service.cache import analysis_key, structure_key
from repro.spi import SpiConfig, SpiSystem, lower
from repro.spi.library import ComputeWiring, RecvWiring, SendWiring

CONFIGS = (
    SpiConfig(resynchronize=True),
    SpiConfig(resynchronize=False),
    SpiConfig(protocol_policy="always_ubs", ubs_window=2, resynchronize=False),
)


def _specs():
    yield generate_spec(5)
    # a broadcast send with two remote branches and one local branch
    yield generate_spec(3, GraphShape(collective_prob=0.7))
    spec = generate_spec(12)
    yield replace(spec, accelerators=tuple(range(spec.n_pes)), batch=4)


@pytest.fixture(params=list(_specs()), ids=["default", "collective", "batched"])
def case(request):
    case = build_case(request.param)
    assert len(lower(case.graph, case.partition).insertion.channels) >= 4
    return case


def test_three_configs_and_mpi_build_the_plan_once(case, monkeypatch):
    import repro.service.cache as cache_module
    import repro.spi.library as library

    plans, fingerprints = [], []
    plan_wiring = library.plan_wiring
    graph_fingerprint = cache_module.graph_fingerprint

    def counting_plan(insertion, script):
        plans.append(insertion)
        return plan_wiring(insertion, script)

    def counting_fingerprint(graph):
        fingerprints.append(graph)
        return graph_fingerprint(graph)

    monkeypatch.setattr(library, "plan_wiring", counting_plan)
    monkeypatch.setattr(cache_module, "graph_fingerprint", counting_fingerprint)
    lowering = lower(case.graph, case.partition)
    cache = AnalysisCache()
    for config in CONFIGS:
        system = SpiSystem.compile(
            case.graph, case.partition, config, cache=cache, lowering=lowering
        )
        system.run(iterations=3, check_lost_wakeups=True)
    MpiSystem.compile(case.graph, case.partition, lowering=lowering).run(
        iterations=3, check_lost_wakeups=True
    )
    assert plans == [lowering.insertion]
    assert fingerprints == [case.graph]


def test_keys_from_the_lowering_equal_the_published_keys(case):
    lowering = lower(case.graph, case.partition)
    for config in CONFIGS:
        system = SpiSystem.compile(
            case.graph,
            case.partition,
            config,
            cache=AnalysisCache(),
            lowering=lowering,
        )
        assert system._analysis_key == analysis_key(
            case.graph, case.partition, config
        )
        assert system._structure_key == structure_key(
            case.graph, case.partition, config
        )
        assert system._analysis_key is not None


def test_the_plan_wires_what_the_inserted_graph_holds(case):
    lowering = lower(case.graph, case.partition)
    insertion = lowering.insertion
    graph = insertion.graph
    ipc = {ipc_edge.edge_id: origin
           for origin, (ipc_edge, _, _) in insertion.channels.items()}
    plan = lowering.wiring
    assert [e.edge_id for e in plan.local_edges] == [
        e.edge_id for e in graph.edges if e.edge_id not in ipc
    ]
    assert [actor for actor, _ in plan.actors] == list(graph.actors)
    sends = {pair.send for _, pair, _ in insertion.channels.values()}
    recvs = {pair.recv: origin
             for origin, (_, pair, _) in insertion.channels.items()}
    for actor, wiring in plan.actors:
        out_edges = sorted(graph.out_edges(actor), key=lambda e: e.branch_index)
        if actor.name in sends:
            assert isinstance(wiring, SendWiring)
            assert wiring.in_edge == graph.in_edges(actor)[0].edge_id
            assert [(e, ipc[e.edge_id]) for e in out_edges
                    if e.edge_id in ipc] == list(wiring.remote)
            assert [e.edge_id for e in out_edges
                    if e.edge_id not in ipc] == list(wiring.local)
            assert wiring.group is insertion.collective_sends.get(actor.name)
        elif actor.name in recvs:
            assert wiring == RecvWiring(
                origin=recvs[actor.name], out_edge=out_edges[0].edge_id
            )
        else:
            assert isinstance(wiring, ComputeWiring)
            needs = [
                (name, [edge_id] if members is None
                 else [member for member, _ in members])
                for name, edge_id, _, members, _ in wiring.pops
            ]
            assert [edge_id for edge_id, _ in wiring.guard] == [
                edge_id for _, edge_ids in needs for edge_id in edge_ids
            ]
            expected = []
            for port in actor.input_ports:
                members = sorted(
                    (e for e in graph.in_edges(actor) if e.sink is port),
                    key=lambda e: e.branch_index,
                )
                if members:
                    expected.append((port.name, [e.edge_id for e in members]))
            assert needs == expected


def test_runs_share_the_plan_but_not_its_fifos(case):
    lowering = lower(case.graph, case.partition)
    system = SpiSystem.compile(case.graph, case.partition, lowering=lowering)
    first = system.run(iterations=3)
    second = system.run(iterations=3)
    assert first.cycles == second.cycles
    assert first.fifo_high_water == second.fifo_high_water
