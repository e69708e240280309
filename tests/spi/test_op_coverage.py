"""Every op kind and burst path of the firing-program interpreter runs.

The golden records pin each run's kernel counters, trace rows and
message log, but only on the interpreter paths their cases reach.  This
suite runs a small fixed set of cases and requires that every op kind
and every path of it executed at least once: a batched burst and an
accelerator burst; a broadcast send and a gather assembly; a UBS ack and
a resynchronization guard and deposit; a dynamic size field; and MPI
eager and rendezvous transfers.  With it, the goldens pin every
interpreter path.
"""

from dataclasses import replace

import pytest

from repro.apps.particle_filter import (
    CrackGrowthModel,
    build_particle_filter_graph,
    simulate_crack_history,
)
from repro.conformance import build_case, generate_spec
from repro.dataflow import DataflowGraph
from repro.mapping.partition import Partition
from repro.mpi.baseline import MpiSystem
from repro.platform import PESequencer
from repro.platform.simulator import FIRE, INIT, RECV, SEND
from repro.spi import SpiConfig, SpiSystem


@pytest.fixture
def programs(monkeypatch):
    """Every op of every sequencer built while the test runs."""
    ops = []
    init = PESequencer.__init__

    def capturing(self, sim, pe, program, iterations, trace=None):
        init(self, sim, pe, program, iterations, trace=trace)
        ops.extend(self.program)

    monkeypatch.setattr(PESequencer, "__init__", capturing)
    return ops


def fired(ops, kind, where=lambda op: True):
    """The ops of ``kind`` satisfying ``where`` that dispatched."""
    return [op for op in ops if op.kind == kind and op.index > 0 and where(op)]


def collective_graph():
    """src on PE0 broadcasts to x1 (PE1) and x2 (PE2); x1 and x2 gather
    into sink on PE0."""
    graph = DataflowGraph("collectives")
    src = graph.actor("src", kernel=lambda k, ins: {"b": [k, k]}, cycles=3)
    src.add_output("b", rate=2)
    for name in ("x1", "x2"):
        actor = graph.actor(
            name, kernel=lambda k, ins: {"o": list(ins["i"])}, cycles=2
        )
        actor.add_input("i", rate=2)
        actor.add_output("o", rate=2)
    sink = graph.actor("sink", kernel=lambda k, ins: {}, cycles=1)
    sink.add_input("g", rate=4)
    graph.add_broadcast("src.b", ["x1.i", "x2.i"], name="bcast")
    graph.add_gather(["x1.o", "x2.o"], "sink.g", name="gath")
    assignment = {"src": 0, "sink": 0, "x1": 1, "x2": 2}
    return graph, Partition.manual(graph, assignment)


def particle_filter():
    model = CrackGrowthModel()
    _, observations = simulate_crack_history(model, steps=4, seed=3)
    return build_particle_filter_graph(
        model, observations, n_particles=80, n_pes=2, seed=5
    )


def two_channel_graph():
    """src on PE0 sends 80 words (above the MPI eager threshold) and one
    word (below it) to snk on PE1."""
    graph = DataflowGraph("two_channels")
    src = graph.actor(
        "src", kernel=lambda k, ins: {"big": [k] * 80, "small": [k]}, cycles=5
    )
    src.add_output("big", rate=80)
    src.add_output("small", rate=1)
    snk = graph.actor("snk", kernel=lambda k, ins: {}, cycles=5)
    snk.add_input("big", rate=80)
    snk.add_input("small", rate=1)
    graph.connect((src, "big"), (snk, "big"))
    graph.connect((src, "small"), (snk, "small"))
    return graph, Partition.manual(graph, {"src": 0, "snk": 1})


def test_collective_sends_and_assembling_firings(programs):
    graph, partition = collective_graph()
    result = SpiSystem.compile(graph, partition).run(iterations=3)
    assert result.collective_messages > 0
    kinds = {
        op.remote[0][0].connection.kind
        for op in fired(programs, SEND, lambda op: op.group)
    }
    assert kinds == {"broadcast"}
    assembled = {
        connection.kind
        for op in fired(programs, FIRE)
        for _, fifo, _, _, connection in op.pops
        if fifo is None
    }
    assert assembled == {"gather"}
    assert fired(programs, INIT)


@pytest.mark.parametrize("batch", [4, 1], ids=["batched", "accelerator"])
def test_burst_paths(programs, batch):
    spec = generate_spec(16)
    case = build_case(
        replace(spec, accelerators=tuple(range(spec.n_pes)), batch=batch)
    )
    system = SpiSystem.compile(case.graph, case.partition)
    assert system.batch == batch
    system.run(iterations=8)
    for kind in (FIRE, SEND, RECV):
        bursts = fired(programs, kind, lambda op: not op.single)
        assert bursts, kind
        if batch > 1:
            assert all(op.counts for op in bursts)
        else:
            assert all(op.counts is None for op in bursts)


def test_ubs_acks_and_resync_layers(programs):
    case = build_case(generate_spec(25))
    system = SpiSystem.compile(case.graph, case.partition)
    assert system.resync_result.added
    result = system.run(iterations=4)
    assert result.resync_messages > 0
    layers = [layer for op in programs for layer in op.sync or ()]
    assert any(layer.guards and layer.count for layer in layers)
    assert any(
        pool.messages_sent for layer in layers for pool, _, _ in layer.notify
    )
    del programs[:]
    ubs = SpiSystem.compile(
        case.graph,
        case.partition,
        SpiConfig(protocol_policy="always_ubs", resynchronize=False),
    ).run(iterations=4)
    assert ubs.ack_messages > 0
    assert fired(programs, RECV, lambda op: op.channel.flow.uses_credits)
    assert fired(programs, SEND, lambda op: op.credited)


def test_dynamic_size_fields(programs):
    app = particle_filter()
    SpiSystem.compile(app.graph, app.partition).run(iterations=4)
    assert fired(programs, RECV, lambda op: op.channel.dynamic)


def test_mpi_eager_and_rendezvous(programs):
    graph, partition = two_channel_graph()
    mpi = MpiSystem.compile(graph, partition)
    assert sorted(mpi.channel_modes.values()) == [False, True]
    result = mpi.run(iterations=4)
    assert result.ack_messages == 2 * 4  # one RTS and one CTS per transfer
    assert fired(programs, SEND, lambda op: op.rendezvous)
    assert fired(programs, SEND, lambda op: not op.rendezvous and op.cost)
    assert fired(programs, RECV, lambda op: op.channel.rendezvous)
    assert fired(programs, RECV, lambda op: not op.channel.rendezvous)
