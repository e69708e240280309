"""Failure injection: mis-configured systems must fail loudly.

Errors should never pass silently: wrong capacities overflow with a
named buffer, miswired protocols raise protocol violations, deadlocks
report the blocked tasks, and corrupted dynamic headers are caught at
the receiver.
"""

import pytest

from repro.dataflow import (
    DataflowGraph,
    DynamicRate,
    GraphError,
    InconsistentGraphError,
)
from repro.mapping import Partition
from repro.platform import BufferOverflowError, SimulationDeadlock
from repro.spi import Protocol, ProtocolConfig, SpiChannel, SpiConfig, SpiSystem


def two_actor_graph(prod_cycles=5, cons_cycles=50):
    graph = DataflowGraph("two")
    a = graph.actor("A", cycles=prod_cycles)
    b = graph.actor("B", cycles=cons_cycles)
    a.add_output("o")
    b.add_input("i")
    graph.connect((a, "o"), (b, "i"))
    return graph, Partition(graph, 2, {"A": 0, "B": 1})


class TestCompileTimeRejection:
    def test_inconsistent_graph_rejected_at_compile(self):
        graph = DataflowGraph("bad")
        a = graph.actor("A")
        b = graph.actor("B")
        a.add_output("o1", rate=2)
        a.add_output("o2", rate=3)
        b.add_input("i1", rate=1)
        b.add_input("i2", rate=1)
        graph.connect((a, "o1"), (b, "i1"))
        graph.connect((a, "o2"), (b, "i2"))
        partition = Partition(graph, 2, {"A": 0, "B": 1})
        with pytest.raises(InconsistentGraphError):
            SpiSystem.compile(graph, partition)

    def test_unvalidated_graph_rejected(self):
        graph = DataflowGraph("dangling")
        a = graph.actor("A")
        a.add_output("o")  # never connected, not an interface
        partition = Partition(graph, 1, {"A": 0})
        with pytest.raises(GraphError, match="unconnected"):
            SpiSystem.compile(graph, partition)

    def test_zero_delay_cycle_rejected(self):
        graph = DataflowGraph("dead")
        a = graph.actor("A")
        b = graph.actor("B")
        a.add_input("i")
        a.add_output("o")
        b.add_input("i")
        b.add_output("o")
        graph.connect((a, "o"), (b, "i"))
        graph.connect((b, "o"), (a, "i"))  # no delay anywhere
        partition = Partition(graph, 2, {"A": 0, "B": 1})
        with pytest.raises(GraphError):
            SpiSystem.compile(graph, partition)


class TestRunTimeViolations:
    def test_dynamic_header_size_mismatch_detected(self):
        """A message whose size field disagrees with its payload is a
        transport corruption; SPI_receive refuses it."""
        graph = DataflowGraph("ch")
        a = graph.actor("A")
        b = graph.actor("B")
        a.add_output("o")
        b.add_input("i")
        edge = graph.connect((a, "o"), (b, "i"))
        channel = SpiChannel(
            edge=edge,
            src_pe=0,
            dst_pe=1,
            config=ProtocolConfig(Protocol.BBS, 2, False),
            dynamic=True,
            token_bytes=4,
            recv_capacity_bytes=64,
        )
        from repro.spi.message import Message, MessageKind

        corrupt = Message(
            kind=MessageKind.DATA,
            edge_id=edge.edge_id,
            payload=(1, 2, 3),
            payload_bytes=12,
            size_field=7,  # lies about the payload length
        )
        channel.deliver(corrupt)
        from repro.platform import (
            Interconnect,
            PESequencer,
            ProcessingElement,
            Simulator,
        )
        from repro.spi.actors import LocalFifo, recv_op

        sim = Simulator()
        channel.attach(sim, Interconnect())
        recv_actor = DataflowGraph("x").actor("recv", cycles=1)
        recv_actor.add_output("out")
        out_graph = DataflowGraph("fifo_holder")
        fa = out_graph.actor("fa")
        fb = out_graph.actor("fb")
        fa.add_output("o")
        fb.add_input("i")
        fifo = LocalFifo(out_graph.connect((fa, "o"), (fb, "i")))
        op = recv_op(recv_actor, channel, fifo)
        PESequencer(sim, ProcessingElement(1), [op], 1).begin()
        with pytest.raises(RuntimeError, match="size"):
            sim.run()
        assert fifo.count == 0

    def test_undersized_buffer_overflows_loudly(self):
        """If the user hand-shrinks a channel buffer below the bound,
        the violation is an exception naming the buffer, never silent
        data loss."""
        graph, partition = two_actor_graph(prod_cycles=5, cons_cycles=500)
        system = SpiSystem.compile(
            graph,
            partition,
            SpiConfig(protocol_policy="always_ubs", resynchronize=False),
        )
        # sabotage: shrink the planned window below what flow control
        # was configured for by disabling acks but keeping the window
        for plan in system.channel_plans.values():
            plan.acks_enabled = False
            plan.capacity_messages = 1
        with pytest.raises(BufferOverflowError, match="recv"):
            system.run(iterations=50)

    def test_deadlock_diagnostic_names_blocked_task(self):
        """A consumer waiting on data that never comes reports itself."""
        from repro.platform import PESequencer, ProcessingElement, Simulator
        from repro.spi.actors import LocalFifo, compute_op
        from repro.spi.library import ComputeWiring

        graph, _ = two_actor_graph()
        consumer = graph.get_actor("B")
        fifos = {edge.edge_id: LocalFifo(edge) for edge in graph.edges}
        op = compute_op(
            consumer, ComputeWiring.of(graph, consumer, fifos), fifos
        )
        sim = Simulator()
        seq = PESequencer(sim, ProcessingElement(0), [op], iterations=1)
        seq.begin()
        with pytest.raises(
            SimulationDeadlock, match="blocked on task 'fire:B'.*starved on"
        ):
            sim.run()


class TestDeterminism:
    def test_identical_runs(self):
        """Two runs of the same compiled system are cycle-identical."""
        graph, partition = two_actor_graph()
        system = SpiSystem.compile(graph, partition)
        first = system.run(iterations=20)
        second = system.run(iterations=20)
        assert first.cycles == second.cycles
        assert first.data_messages == second.data_messages
        assert first.buffer_high_water == second.buffer_high_water

    def test_recompile_deterministic(self):
        graph, partition = two_actor_graph()
        a = SpiSystem.compile(graph, partition).run(iterations=10)
        b = SpiSystem.compile(graph, partition).run(iterations=10)
        assert a.cycles == b.cycles

    def test_vts_run_deterministic(self):
        graph = DataflowGraph("dyn")

        def burst(k, inputs):
            return {"o": list(range(k % 5 + 1))}

        a = graph.actor("A", kernel=burst, cycles=4)
        b = graph.actor("B", cycles=4)
        a.add_output("o", rate=DynamicRate(5))
        b.add_input("i", rate=DynamicRate(5))
        graph.connect((a, "o"), (b, "i"))
        partition = Partition(graph, 2, {"A": 0, "B": 1})
        system = SpiSystem.compile(graph, partition)
        runs = [system.run(iterations=10) for _ in range(2)]
        assert runs[0].payload_bytes == runs[1].payload_bytes
        assert runs[0].cycles == runs[1].cycles
