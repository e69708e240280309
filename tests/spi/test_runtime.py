"""Unit/integration tests for the compiled SPI system."""

import pytest

from repro.dataflow import DataflowGraph, DynamicRate
from repro.mapping import Partition
from repro.spi import Protocol, SpiConfig, SpiSystem
from tests.conftest import build_pipeline_graph as pipeline_graph


class TestCompile:
    def test_channel_per_crossing_edge(self):
        graph = pipeline_graph()
        partition = Partition.manual(graph, {"A": 0, "B": 1, "C": 0})
        system = SpiSystem.compile(graph, partition)
        assert set(system.channel_plans) == {"A.o->B.i", "B.o->C.i"}

    def test_feedback_gives_bbs(self):
        graph = pipeline_graph()
        partition = Partition.manual(graph, {"A": 0, "B": 1, "C": 0})
        system = SpiSystem.compile(graph, partition)
        for plan in system.channel_plans.values():
            assert plan.protocol == Protocol.BBS
            assert not plan.acks_enabled

    def test_feedforward_gives_ubs(self):
        """With C on a third PE there is no return path to A's PE 0:
        A->B has feedback only if something flows back to PE0."""
        graph = pipeline_graph()
        partition = Partition.manual(graph, {"A": 0, "B": 1, "C": 2})
        system = SpiSystem.compile(
            graph, partition, SpiConfig(resynchronize=False)
        )
        for plan in system.channel_plans.values():
            assert plan.protocol == Protocol.UBS
            assert plan.acks_enabled

    def test_always_ubs_policy(self):
        graph = pipeline_graph()
        partition = Partition.manual(graph, {"A": 0, "B": 1, "C": 0})
        system = SpiSystem.compile(
            graph, partition,
            SpiConfig(protocol_policy="always_ubs", resynchronize=False),
        )
        for plan in system.channel_plans.values():
            assert plan.protocol == Protocol.UBS

    def test_resync_disables_redundant_acks(self):
        """In the closed A->B->C->A-loop placement the UBS ack edges are
        redundant (the data path throttles the senders), so
        resynchronization turns the acks off."""
        graph = pipeline_graph()
        partition = Partition.manual(graph, {"A": 0, "B": 1, "C": 0})
        system = SpiSystem.compile(
            graph, partition, SpiConfig(protocol_policy="always_ubs")
        )
        assert all(
            not plan.acks_enabled for plan in system.channel_plans.values()
        )

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SpiConfig(protocol_policy="telepathy")
        with pytest.raises(ValueError):
            SpiConfig(ubs_window=0)


class TestRun:
    def test_functional_results_cross_pe(self):
        collected = []
        graph = pipeline_graph(collected)
        partition = Partition.manual(graph, {"A": 0, "B": 1, "C": 0})
        SpiSystem.compile(graph, partition).run(iterations=5)
        assert collected == [1, 4, 9, 16, 25]

    def test_single_pe_needs_no_messages(self):
        collected = []
        graph = pipeline_graph(collected)
        partition = Partition.single_processor(graph)
        result = SpiSystem.compile(graph, partition).run(iterations=3)
        assert result.data_messages == 0
        assert collected == [1, 4, 9]

    def test_message_counts(self):
        graph = pipeline_graph()
        partition = Partition.manual(graph, {"A": 0, "B": 1, "C": 0})
        result = SpiSystem.compile(graph, partition).run(iterations=10)
        assert result.data_messages == 20  # 2 channels x 10 iterations
        assert result.ack_messages == 0  # BBS
        assert result.payload_bytes == 20 * 4
        assert result.header_bytes == 20 * 4  # static headers

    def test_ubs_acks_counted(self):
        graph = pipeline_graph()
        partition = Partition.manual(graph, {"A": 0, "B": 1, "C": 0})
        system = SpiSystem.compile(
            graph, partition,
            SpiConfig(protocol_policy="always_ubs", resynchronize=False),
        )
        result = system.run(iterations=10)
        assert result.ack_messages == 20
        assert result.sync_messages == 20

    def test_resync_removes_ack_traffic(self):
        graph = pipeline_graph()
        partition = Partition.manual(graph, {"A": 0, "B": 1, "C": 0})
        with_resync = SpiSystem.compile(
            graph, partition, SpiConfig(protocol_policy="always_ubs")
        ).run(iterations=10)
        assert with_resync.ack_messages == 0

    def test_buffer_high_water_within_plan(self):
        graph = pipeline_graph()
        partition = Partition.manual(graph, {"A": 0, "B": 1, "C": 0})
        system = SpiSystem.compile(graph, partition)
        result = system.run(iterations=20)
        for name, plan in system.channel_plans.items():
            high = result.buffer_high_water[name]
            assert high <= (plan.capacity_messages + 1) * plan.message_payload_bytes

    @staticmethod
    def _pipelined_graph():
        """Heavy chain with unit pipeline delays so stages can overlap
        across iterations (classic retimed pipeline)."""
        graph = DataflowGraph("pipelined")
        a = graph.actor("A", cycles=400)
        b = graph.actor("B", cycles=500)
        c = graph.actor("C", cycles=300)
        a.add_output("o")
        b.add_input("i")
        b.add_output("o")
        c.add_input("i")
        graph.connect((a, "o"), (b, "i"), delay=1)
        graph.connect((b, "o"), (c, "i"), delay=1)
        return graph

    def test_speedup_against_with_pipeline_delays(self):
        """With unit delays on the stage boundaries the three stages
        overlap; the 3-PE period approaches the slowest stage."""
        graph = self._pipelined_graph()
        r1 = SpiSystem.compile(
            graph, Partition.single_processor(graph)
        ).run(iterations=20)
        graph2 = self._pipelined_graph()
        partition2 = Partition.manual(graph2, {"A": 0, "B": 1, "C": 2})
        r2 = SpiSystem.compile(graph2, partition2).run(iterations=20)
        assert r1.iteration_period_cycles == pytest.approx(1200, rel=0.01)
        # distributed period ~ max stage (500) + communication
        assert r2.iteration_period_cycles < 650
        assert r1.execution_time_us / r2.execution_time_us > 1.5

    def test_tiny_compute_not_worth_distributing(self):
        """With 35 cycles of work per iteration, the communication cost
        makes 2 PEs slower than 1 — the crossover the figures show."""
        graph = pipeline_graph()
        r1 = SpiSystem.compile(
            graph, Partition.single_processor(graph)
        ).run(iterations=20)
        graph2 = pipeline_graph()
        partition2 = Partition.manual(graph2, {"A": 0, "B": 1, "C": 0})
        r2 = SpiSystem.compile(graph2, partition2).run(iterations=20)
        assert r1.execution_time_us / r2.execution_time_us < 1.0

    def test_iterations_validated(self):
        graph = pipeline_graph()
        system = SpiSystem.compile(graph, Partition.single_processor(graph))
        with pytest.raises(Exception):
            system.run(iterations=0)


class TestAnalysis:
    def test_mcm_bounds_measured_period(self):
        graph = pipeline_graph()
        partition = Partition.manual(graph, {"A": 0, "B": 1, "C": 0})
        system = SpiSystem.compile(graph, partition)
        result = system.run(iterations=30)
        assert result.iteration_period_cycles >= (
            system.estimated_iteration_period_cycles() - 1e-6
        )

    def test_sync_cost_reporting(self):
        graph = pipeline_graph()
        partition = Partition.manual(graph, {"A": 0, "B": 1, "C": 0})
        system = SpiSystem.compile(graph, partition)
        reference = (
            system.resync_result.graph
            if system.resync_result is not None
            else system.sync_graph
        )
        assert reference.sync_cost() >= 2  # two data channels

    def test_fpga_report_spi_only_system(self):
        graph = pipeline_graph()
        partition = Partition.manual(graph, {"A": 0, "B": 1, "C": 0})
        system = SpiSystem.compile(graph, partition)
        report = system.fpga_report()
        # no computation resources declared -> SPI is 100% of the system
        assert report.spi_relative_percent()["slices"] == 100.0
        assert report.spi_library.dsp48 == 0  # SPI never uses DSP48s


class TestVtsIntegration:
    def test_dynamic_edge_uses_dynamic_headers(self):
        graph = DataflowGraph("dyn")

        def src(k, inputs):
            return {"o": list(range(k % 3 + 1))}

        def snk(k, inputs):
            return {}

        a = graph.actor("A", kernel=src, cycles=5)
        b = graph.actor("B", kernel=snk, cycles=5)
        a.add_output("o", rate=DynamicRate(4), token_bytes=2)
        b.add_input("i", rate=DynamicRate(4), token_bytes=2)
        graph.connect((a, "o"), (b, "i"))
        partition = Partition(graph, 2, {"A": 0, "B": 1})
        system = SpiSystem.compile(graph, partition)
        plan = next(iter(system.channel_plans.values()))
        assert plan.dynamic
        result = system.run(iterations=6)
        # dynamic headers are 8 bytes
        assert result.header_bytes == 6 * 8
        # payload: sizes cycle 1,2,3 raw tokens x 2 bytes
        assert result.payload_bytes == (1 + 2 + 3) * 2 * 2


def fork_graph():
    """src feeding two heavy parallel branches joined by a sink."""
    graph = DataflowGraph("fork")
    src = graph.actor("src", cycles=10)
    left = graph.actor("left", cycles=400)
    right = graph.actor("right", cycles=400)
    sink = graph.actor("sink", cycles=10)
    src.add_output("l")
    src.add_output("r")
    left.add_input("i")
    left.add_output("o")
    right.add_input("i")
    right.add_output("o")
    sink.add_input("l")
    sink.add_input("r")
    graph.connect((src, "l"), (left, "i"))
    graph.connect((src, "r"), (right, "i"))
    graph.connect((left, "o"), (sink, "l"))
    graph.connect((right, "o"), (sink, "r"))
    return graph


class TestDescribe:
    def test_report_contents(self):
        graph = fork_graph()
        partition = Partition.manual(
            graph, {"src": 0, "left": 0, "right": 1, "sink": 0}
        )
        system = SpiSystem.compile(graph, partition)
        report = system.describe()
        assert "SPI system" in report
        assert "self-timed schedule" in report
        assert "PE0:" in report and "PE1:" in report
        assert "SPI_static" in report or "none" in report
        assert "MCM bound" in report

    def test_single_pe_report(self):
        graph = fork_graph()
        system = SpiSystem.compile(graph, Partition.single_processor(graph))
        assert "none (single PE)" in system.describe()

    def test_vts_noted(self):
        graph = DataflowGraph("dyn")
        a = graph.actor("A", cycles=1)
        b = graph.actor("B", cycles=1)
        a.add_output("o", rate=DynamicRate(3))
        b.add_input("i", rate=DynamicRate(3))
        graph.connect((a, "o"), (b, "i"))
        system = SpiSystem.compile(graph, Partition(graph, 2, {"A": 0, "B": 1}))
        report = system.describe()
        assert "VTS conversion" in report
        assert "SPI_dynamic" in report
