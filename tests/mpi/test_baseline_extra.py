"""Additional MPI-baseline coverage: rendezvous details, dynamic graphs,
mixed networks, and fairness of the comparison."""


from repro.dataflow import DataflowGraph, DynamicRate
from repro.mapping import Partition
from repro.mpi import MpiConfig, MpiSystem
from repro.spi import SpiSystem


def fan_graph(rates=(1, 200)):
    """One producer feeding two consumers with different message sizes:
    a mixed eager/rendezvous network."""
    graph = DataflowGraph("fan")
    a = graph.actor("A", cycles=10)
    small = graph.actor("small", cycles=10)
    big = graph.actor("big", cycles=10)
    a.add_output("s", rate=rates[0])
    a.add_output("b", rate=rates[1])
    small.add_input("i", rate=rates[0])
    big.add_input("i", rate=rates[1])
    graph.connect((a, "s"), (small, "i"))
    graph.connect((a, "b"), (big, "i"))
    partition = Partition.manual(graph, {"A": 0, "small": 1, "big": 2})
    return graph, partition


class TestMixedNetwork:
    def test_modes_per_channel(self):
        graph, partition = fan_graph()
        system = MpiSystem.compile(graph, partition)
        modes = system.channel_modes
        assert modes["A.s->small.i"] is False  # eager
        assert modes["A.b->big.i"] is True  # rendezvous

    def test_mixed_network_completes(self):
        graph, partition = fan_graph()
        result = MpiSystem.compile(graph, partition).run(iterations=8)
        assert result.data_messages == 16
        # only the rendezvous channel generates RTS/CTS control traffic
        assert result.ack_messages == 16


class TestRendezvousTiming:
    def test_rendezvous_adds_round_trip(self):
        """The same payload moved eagerly (threshold raised) must be
        faster than via rendezvous (threshold lowered)."""

        def build():
            graph = DataflowGraph("p")
            a = graph.actor("A", cycles=10)
            b = graph.actor("B", cycles=10)
            a.add_output("o", rate=100)
            b.add_input("i", rate=100)
            graph.connect((a, "o"), (b, "i"))
            return graph, Partition.manual(graph, {"A": 0, "B": 1})

        graph, partition = build()
        eager = MpiSystem.compile(
            graph, partition, MpiConfig(eager_threshold_bytes=100000)
        ).run(iterations=10)
        graph, partition = build()
        rendezvous = MpiSystem.compile(
            graph, partition, MpiConfig(eager_threshold_bytes=1)
        ).run(iterations=10)
        assert rendezvous.execution_time_us > eager.execution_time_us
        assert rendezvous.ack_messages == 20
        assert eager.ack_messages == 0


class TestDynamicGraphs:
    def test_mpi_handles_vts_graphs(self):
        """The baseline also rides on VTS conversion for dynamic rates —
        both layers see identical applications."""
        graph = DataflowGraph("dyn")

        def burst(k, inputs):
            return {"o": list(range(k % 3 + 1))}

        a = graph.actor("A", kernel=burst, cycles=5)
        b = graph.actor("B", cycles=5)
        a.add_output("o", rate=DynamicRate(4), token_bytes=2)
        b.add_input("i", rate=DynamicRate(4), token_bytes=2)
        graph.connect((a, "o"), (b, "i"))
        partition = Partition(graph, 2, {"A": 0, "B": 1})
        result = MpiSystem.compile(graph, partition).run(iterations=6)
        assert result.data_messages == 6
        assert result.payload_bytes == (1 + 2 + 3) * 2 * 2


class TestFairness:
    def test_same_functional_results_as_spi(self):
        """Identical output values through either layer."""
        def build(collect):
            graph = DataflowGraph("f")

            def src(k, inputs):
                return {"o": [k * k]}

            def snk(k, inputs):
                collect.append(inputs["i"][0])
                return {}

            a = graph.actor("A", kernel=src, cycles=5)
            b = graph.actor("B", kernel=snk, cycles=5)
            a.add_output("o")
            b.add_input("i")
            graph.connect((a, "o"), (b, "i"))
            return graph, Partition.manual(graph, {"A": 0, "B": 1})

        spi_out, mpi_out = [], []
        graph, partition = build(spi_out)
        SpiSystem.compile(graph, partition).run(iterations=6)
        graph, partition = build(mpi_out)
        MpiSystem.compile(graph, partition).run(iterations=6)
        assert spi_out == mpi_out == [0, 1, 4, 9, 16, 25]
