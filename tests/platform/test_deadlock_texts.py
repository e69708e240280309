"""The full ``SimulationDeadlock`` text of every blocked-reason form.

A deadlock report names, per blocked PE, the op it is stuck on and the
first unmet part of that op's guard.  Each test below builds one
deadlock on a small graph (an actor that emits no tokens starves its
consumers) and pins the whole message, so any change to how the kernel
walks a guard shows up here byte for byte.
"""

import pytest

from repro.dataflow import DataflowGraph
from repro.mapping import Partition
from repro.mpi.baseline import MpiSystem
from repro.platform import (
    PESequencer,
    ProcessingElement,
    SimulationDeadlock,
    Simulator,
)
from repro.platform.pe import PEClass
from repro.spi import SpiConfig, SpiSystem
from repro.spi.actors import LocalFifo, SyncLayer, SyncTokenPool, compute_op
from repro.spi.library import ComputeWiring


def silent(k, inputs):
    return {"o": []}  # violates its declared rate: its consumers starve


def sink(k, inputs):
    return {}


def starved_pair(rate=1):
    """``A -> B`` where ``A`` never emits a token."""
    graph = DataflowGraph("starved")
    a = graph.actor("A", kernel=silent, cycles=5)
    b = graph.actor("B", kernel=sink, cycles=5)
    a.add_output("o", rate=rate)
    b.add_input("i", rate=rate)
    graph.connect((a, "o"), (b, "i"))
    return graph


def join_graph(a_kernel=silent):
    """``A -> B.i`` (rate 1) and ``C -> B.j`` (rate 2); ``C`` is silent."""
    graph = DataflowGraph("join")
    a = graph.actor("A", kernel=a_kernel, cycles=5)
    c = graph.actor("C", kernel=silent, cycles=5)
    b = graph.actor("B", kernel=sink, cycles=5)
    a.add_output("o")
    c.add_output("o", rate=2)
    b.add_input("i")
    b.add_input("j", rate=2)
    graph.connect((a, "o"), (b, "i"))
    graph.connect((c, "o"), (b, "j"))
    return graph


def deadlock(run) -> str:
    with pytest.raises(SimulationDeadlock) as excinfo:
        run()
    return str(excinfo.value)


def test_fire_op_with_two_starved_inputs():
    graph = join_graph()
    system = SpiSystem.compile(
        graph, Partition.manual(graph, {"A": 0, "B": 0, "C": 0})
    )
    assert deadlock(lambda: system.run(iterations=2)) == (
        "simulation deadlocked at t=18: PE0 blocked on task 'fire:B' "
        "(iteration 0, position 3): starved on 'A.o->B.i' (has 0, needs 1), "
        "'C.o->B.j' (has 0, needs 2)"
    )


def test_send_op_starved_and_recv_op_waiting_for_a_message():
    graph = starved_pair()
    system = SpiSystem.compile(graph, Partition.manual(graph, {"A": 0, "B": 1}))
    assert deadlock(lambda: system.run(iterations=2)) == (
        "simulation deadlocked at t=13: PE0 blocked on task 'spi_send_0_A' "
        "(iteration 0, position 2): starved on 'A.o->B.i.to_send' "
        "(has 0, needs 1); PE1 blocked on task 'spi_recv_0_B' "
        "(iteration 0, position 1): waiting for a message on channel "
        "'A.o->B.i.ipc'"
    )


def test_send_op_with_closed_ack_credit():
    """``B`` starves on its local input, so ``B``'s PE stops receiving
    and acknowledging, and ``A``'s sends use up the UBS window."""
    graph = join_graph(a_kernel=lambda k, inputs: {"o": [k]})
    system = SpiSystem.compile(
        graph,
        Partition.manual(graph, {"A": 0, "B": 1, "C": 1}),
        SpiConfig(protocol_policy="always_ubs"),
    )
    assert deadlock(lambda: system.run(iterations=10)) == (
        "simulation deadlocked at t=54: PE0 blocked on task 'spi_send_0_A' "
        "(iteration 5, position 2): waiting for ack credit on channel "
        "'A.o->B.i.ipc'; PE1 blocked on task 'fire:B' "
        "(iteration 0, position 3): starved on 'C.o->B.j' (has 0, needs 2)"
    )


def test_batched_recv_op_waiting_for_n_messages():
    graph = starved_pair(rate=2)
    accelerator = PEClass(
        kind="accelerator", dispatch_cycles=100, cycles_per_element=0.25
    )
    partition = Partition(
        graph, 2, {"A": 0, "B": 1}, pe_classes={1: accelerator}, batch_size=4
    )
    system = SpiSystem.compile(graph, partition)
    assert system.batch == 4
    assert deadlock(lambda: system.run(iterations=8)) == (
        "simulation deadlocked at t=28: PE0 blocked on task 'spi_send_0_A' "
        "(iteration 0, position 2): starved on 'A.o->B.i.to_send' "
        "(has 0, needs 8); PE1 blocked on task 'spi_recv_0_B' "
        "(iteration 0, position 1): waiting for 4 messages on channel "
        "'A.o->B.i.ipc'"
    )


def test_mpi_recv_op_waiting_for_a_rts_envelope():
    graph = starved_pair(rate=512)
    system = MpiSystem.compile(graph, Partition.manual(graph, {"A": 0, "B": 1}))
    assert system.channel_modes == {"A.o->B.i": True}  # rendezvous
    assert deadlock(lambda: system.run(iterations=2)) == (
        "simulation deadlocked at t=5: PE0 blocked on task 'mpi_send_0_A' "
        "(iteration 0, position 1): starved on 'A.o->B.i.to_send' "
        "(has 0, needs 512); PE1 blocked on task 'mpi_recv_0_B' "
        "(iteration 0, position 0): waiting for a RTS envelope on channel "
        "'A.o->B.i.ipc'"
    )


def test_sync_layer_guard():
    """The outermost layer with an empty pool is reported; the op parks
    on every empty pool of every layer and on its starved fifos."""
    graph = join_graph()
    b = graph.get_actor("B")
    fifos = {edge.edge_id: LocalFifo(edge) for edge in graph.edges}
    op = compute_op(b, ComputeWiring.of(graph, b, fifos), fifos)
    pools = [SyncTokenPool(name, 0) for name in ("s0", "s1", "s2")]
    SyncLayer.attach(op, SyncLayer(guards=[pools[2]]))
    SyncLayer.attach(op, SyncLayer(guards=pools[:2]))
    sim = Simulator()
    PESequencer(sim, ProcessingElement(2), [op], iterations=1).begin()
    assert deadlock(sim.run) == (
        "simulation deadlocked at t=0: PE2 blocked on task 'sync:sync:fire:B' "
        "(iteration 0, position 0): waiting for sync tokens on 's0', 's1'"
    )
    assert [len(pool.waitset) for pool in pools] == [1, 1, 1]
    assert sorted(len(fifo.waitset) for fifo in fifos.values()) == [1, 1]
