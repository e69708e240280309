"""SPI runtime tests for collective connections.

Covers the lowering semantics (one send actor per fan-out collective,
per-branch delivery), the transport counters
(``collective_messages`` / ``fan_out_deliveries`` / ``wire_bytes_saved``)
and the degenerate A/B guarantee: a 1-consumer broadcast and a
1-producer gather are bit-identical to a plain FIFO edge.
"""

import pytest

from repro.dataflow import DataflowGraph
from repro.mapping import Partition
from repro.observability.exporters import validate_metrics
from repro.spi import SpiConfig, SpiSystem


def _run(graph, assignment, transport="p2p", iterations=4):
    partition = Partition.manual(graph, assignment)
    system = SpiSystem.compile(graph, partition, SpiConfig(transport=transport))
    return system.run(iterations=iterations, metrics=True)


def _broadcast_graph(collected, n_sinks=2, rate=4):
    graph = DataflowGraph("bcast")
    src = graph.actor(
        "src", kernel=lambda k, ins: {"o": [k * 10 + j for j in range(rate)]},
        cycles=10,
    )
    src.add_output("o", rate=rate)
    sinks = []
    for j in range(n_sinks):

        def sink(k, ins, j=j):
            collected[j].extend(ins["i"])
            return {}

        snk = graph.actor(f"snk{j}", kernel=sink, cycles=5)
        snk.add_input("i", rate=rate)
        sinks.append(snk)
    graph.add_broadcast("src.o", [f"snk{j}.i" for j in range(n_sinks)])
    return graph


class TestSemantics:
    def test_broadcast_delivers_full_copy_to_every_consumer(self):
        collected = {0: [], 1: [], 2: []}
        graph = _broadcast_graph(collected, n_sinks=3, rate=2)
        _run(graph, {"src": 0, "snk0": 1, "snk1": 2, "snk2": 0}, iterations=3)
        expected = [0, 1, 10, 11, 20, 21]
        assert collected[0] == expected
        assert collected[1] == expected
        assert collected[2] == expected

    def test_gather_concatenates_in_branch_order(self):
        collected = []
        graph = DataflowGraph("gath")
        for j in range(3):
            src = graph.actor(
                f"src{j}",
                kernel=(lambda j: lambda k, ins: {"o": [j, j]})(j),
                cycles=5,
            )
            src.add_output("o", rate=2)
        snk = graph.actor(
            "snk",
            kernel=lambda k, ins: collected.append(list(ins["i"])) or {},
            cycles=10,
        )
        snk.add_input("i", rate=6)
        graph.add_gather(["src0.o", "src1.o", "src2.o"], "snk.i")
        _run(graph, {"src0": 0, "src1": 1, "src2": 2, "snk": 0}, iterations=3)
        assert collected == [[0, 0, 1, 1, 2, 2]] * 3


class TestCounters:
    def test_same_link_fan_out_shares_the_payload(self):
        """Two consumers on the same remote PE: one wire transfer per
        firing, two deliveries, and the second copy's bytes saved."""
        collected = {0: [], 1: []}
        graph = _broadcast_graph(collected, n_sinks=2, rate=4)
        result = _run(graph, {"src": 0, "snk0": 1, "snk1": 1}, iterations=4)
        assert result.collective_messages == 4
        assert result.fan_out_deliveries == 8
        assert result.wire_bytes_saved > 0
        assert collected[0] == collected[1]

    def test_all_local_broadcast_sends_nothing(self):
        collected = {0: [], 1: []}
        graph = _broadcast_graph(collected, n_sinks=2)
        result = _run(graph, {"src": 0, "snk0": 0, "snk1": 0}, iterations=3)
        assert result.data_messages == 0
        assert result.collective_messages == 0
        assert result.wire_bytes_saved == 0
        assert collected[0] == collected[1]

    @pytest.mark.parametrize("transport", ["p2p", "shared_bus", "ordered_bus"])
    def test_counters_consistent_on_every_transport(self, transport):
        collected = {0: [], 1: []}
        graph = _broadcast_graph(collected, n_sinks=2)
        result = _run(
            graph, {"src": 0, "snk0": 1, "snk1": 1},
            transport=transport, iterations=3,
        )
        assert result.collective_messages > 0
        assert result.fan_out_deliveries >= result.collective_messages
        assert result.wire_bytes_saved > 0
        assert collected[0] == collected[1]

    def test_metrics_document_validates(self):
        collected = {0: [], 1: []}
        graph = _broadcast_graph(collected, n_sinks=2)
        result = _run(graph, {"src": 0, "snk0": 1, "snk1": 1}, iterations=3)
        assert result.metrics is not None
        validate_metrics(result.metrics)
        transport = result.metrics["transport"]
        assert transport["collective_messages"] == result.collective_messages
        assert transport["fan_out_deliveries"] == result.fan_out_deliveries
        assert transport["wire_bytes_saved"] == result.wire_bytes_saved


def _degenerate_pair(make_edge_legacy, make_edge_collective):
    """Run the same 2-actor cross-PE chain with a plain FIFO edge and
    with the degenerate collective; return both results."""

    def build(make_edge):
        graph = DataflowGraph("deg")
        src = graph.actor(
            "src", kernel=lambda k, ins: {"o": [k, k + 1]}, cycles=10
        )
        src.add_output("o", rate=2)
        snk = graph.actor("snk", kernel=lambda k, ins: {}, cycles=5)
        snk.add_input("i", rate=2)
        make_edge(graph, src, snk)
        return _run(graph, {"src": 0, "snk": 1}, iterations=5)

    return build(make_edge_legacy), build(make_edge_collective)


class TestDegenerateAB:
    """A 1-branch collective must be bit-identical to the FIFO edge it
    degenerates to — same schedule, traffic and buffer bounds."""

    def _assert_identical(self, fifo, degenerate):
        assert degenerate.cycles == fifo.cycles
        assert degenerate.iteration_period_cycles == (
            fifo.iteration_period_cycles
        )
        assert degenerate.data_messages == fifo.data_messages
        assert degenerate.ack_messages == fifo.ack_messages
        assert degenerate.wire_bytes == fifo.wire_bytes
        assert degenerate.collective_messages == 0
        assert degenerate.fan_out_deliveries == 0
        assert degenerate.wire_bytes_saved == 0

    def test_one_consumer_broadcast_matches_fifo(self):
        fifo, degenerate = _degenerate_pair(
            lambda g, a, b: g.connect(a.port("o"), b.port("i")),
            lambda g, a, b: g.add_broadcast("src.o", ["snk.i"]),
        )
        self._assert_identical(fifo, degenerate)

    def test_one_producer_gather_matches_fifo(self):
        fifo, degenerate = _degenerate_pair(
            lambda g, a, b: g.connect(a.port("o"), b.port("i")),
            lambda g, a, b: g.add_gather(["src.o"], "snk.i"),
        )
        self._assert_identical(fifo, degenerate)

    def test_degenerate_channel_plans_match(self):
        def build(degenerate):
            graph = DataflowGraph("deg")
            src = graph.actor("src", cycles=10)
            src.add_output("o", rate=2)
            snk = graph.actor("snk", cycles=5)
            snk.add_input("i", rate=2)
            if degenerate:
                graph.add_broadcast("src.o", ["snk.i"], name="e")
            else:
                graph.connect(src.port("o"), snk.port("i"), name="e")
            partition = Partition.manual(graph, {"src": 0, "snk": 1})
            return SpiSystem.compile(graph, partition)

        # the member edge is named "e[0]" vs the FIFO's "e" — everything
        # the plan decides (protocol, bound, route) must agree
        (plain,) = build(False).channel_plans.values()
        (degen,) = build(True).channel_plans.values()
        assert degen.protocol == plain.protocol
        assert degen.capacity_messages == plain.capacity_messages
        assert degen.acks_enabled == plain.acks_enabled
        assert (degen.src_pe, degen.dst_pe) == (plain.src_pe, plain.dst_pe)
