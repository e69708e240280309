"""The run-level metrics document: schema, soundness, paper graphs.

The load-bearing invariant: per-channel occupancy high-water marks never
exceed the compile-time bound ``B(e)`` (plus the one in-flight receive
slot) — checked here on both paper applications.
"""

import pytest

from repro.apps.lpc import build_parallel_error_graph, frame_stream
from repro.apps.particle_filter import (
    CrackGrowthModel,
    build_particle_filter_graph,
    simulate_crack_history,
)
from repro.dataflow import DataflowGraph
from repro.mapping import Partition
from repro.observability import (
    METRICS_SCHEMA,
    MetricsValidationError,
    validate_metrics,
)
from repro.spi import SpiConfig, SpiSystem


def small_system(transport="p2p", policy="auto"):
    graph = DataflowGraph("doc")
    a = graph.actor("A", cycles=10)
    b = graph.actor("B", cycles=20)
    a.add_output("o")
    b.add_input("i")
    graph.connect((a, "o"), (b, "i"))
    partition = Partition.manual(graph, {"A": 0, "B": 1})
    return SpiSystem.compile(
        graph, partition, SpiConfig(transport=transport, protocol_policy=policy)
    )


@pytest.fixture(scope="module")
def lpc_result():
    frames = frame_stream(total_samples=2 * 256, frame_size=256)
    system = build_parallel_error_graph(frames, order=8, n_units=3)
    compiled = SpiSystem.compile(system.graph, system.partition)
    return compiled.run(iterations=6, metrics=True)


@pytest.fixture(scope="module")
def pf_result():
    model = CrackGrowthModel()
    _, observations = simulate_crack_history(model, steps=4)
    system = build_particle_filter_graph(
        model, observations, n_particles=100, n_pes=2
    )
    compiled = SpiSystem.compile(system.graph, system.partition)
    return compiled.run(iterations=4, metrics=True)


class TestDocumentShape:
    def test_disabled_by_default(self):
        assert small_system().run(iterations=2).metrics is None

    def test_schema_and_validation(self):
        result = small_system().run(iterations=3, metrics=True)
        document = result.metrics
        assert document["schema"] == METRICS_SCHEMA
        validate_metrics(document)

    def test_simulator_counters_populated(self):
        document = small_system().run(iterations=3, metrics=True).metrics
        sim = document["simulator"]
        assert sim["events_processed"] > 0
        assert sim["parks"] >= 0
        assert sim["total_wakeups"] == sim["targeted_wakeups"]
        assert sim["spurious_wakeups"] <= sim["total_wakeups"]

    def test_spurious_wakeups_bounded_by_total(self):
        document = small_system().run(iterations=3, metrics=True).metrics
        document["simulator"]["spurious_wakeups"] = (
            document["simulator"]["total_wakeups"] + 1
        )
        with pytest.raises(MetricsValidationError, match="spurious_wakeups"):
            validate_metrics(document)

    def test_transport_fast_path_counter_present(self):
        document = small_system().run(iterations=3, metrics=True).metrics
        assert document["transport"]["fast_path_deliveries"] >= 0

    def test_blocked_cycles_attributed(self):
        document = small_system().run(iterations=4, metrics=True).metrics
        by_pe = {pe["name"]: pe for pe in document["pes"]}
        # B (20 cycles) outpaces A's sends: PE1 must block on its receive
        assert by_pe["PE1"]["blocked_cycles"] > 0
        assert any(
            "spi_recv" in task for task in by_pe["PE1"]["blocked_by_task"]
        )
        for pe in document["pes"]:
            assert (
                sum(pe["blocked_by_task"].values()) <= pe["blocked_cycles"]
            )

    @pytest.mark.parametrize(
        "transport", ["p2p", "shared_bus", "ordered_bus"]
    )
    def test_transport_section_all_flavours(self, transport):
        document = small_system(transport).run(
            iterations=3, metrics=True
        ).metrics
        section = document["transport"]
        assert section["messages"] == 3
        assert section["channels"]
        for channel in section["channels"]:
            assert channel["queueing_cycles"] >= channel["contention_cycles"]

    def test_ack_traffic_in_byte_split(self):
        document = small_system(policy="always_ubs").run(
            iterations=3, metrics=True
        ).metrics
        split = document["wire_byte_split"]
        assert split.get("ack", 0) > 0
        assert split["data"] > split["ack"]


class TestValidation:
    def test_rejects_wrong_schema(self):
        with pytest.raises(MetricsValidationError, match="schema"):
            validate_metrics({"schema": "bogus/9"})

    def test_rejects_missing_keys(self):
        with pytest.raises(MetricsValidationError, match="missing"):
            validate_metrics({"schema": METRICS_SCHEMA})

    def test_rejects_occupancy_over_bound(self):
        document = small_system().run(iterations=3, metrics=True).metrics
        channel = document["channels"][0]
        channel["occupancy_high_water_messages"] = (
            channel["physical_slots"] + 1
        )
        with pytest.raises(MetricsValidationError, match="high-water"):
            validate_metrics(document)

    def test_rejects_fan_out_without_collective_transfers(self):
        document = small_system().run(iterations=3, metrics=True).metrics
        document["transport"]["fan_out_deliveries"] = 2
        with pytest.raises(MetricsValidationError, match="collective"):
            validate_metrics(document)

    def test_rejects_fan_out_below_collective_messages(self):
        document = small_system().run(iterations=3, metrics=True).metrics
        document["transport"]["collective_messages"] = 4
        document["transport"]["fan_out_deliveries"] = 3
        with pytest.raises(MetricsValidationError, match="fan_out"):
            validate_metrics(document)

    def test_rejects_saved_bytes_over_logical_traffic(self):
        document = small_system().run(iterations=3, metrics=True).metrics
        logical = sum(
            c["data_bytes"] + c["header_bytes"] for c in document["channels"]
        )
        document["transport"]["collective_messages"] = 1
        document["transport"]["fan_out_deliveries"] = 2
        document["transport"]["wire_bytes_saved"] = logical + 1
        with pytest.raises(MetricsValidationError, match="wire_bytes_saved"):
            validate_metrics(document)


class TestPaperGraphs:
    def test_lpc_occupancy_within_static_bound(self, lpc_result):
        validate_metrics(lpc_result.metrics)
        for channel in lpc_result.metrics["channels"]:
            assert (
                channel["occupancy_high_water_messages"]
                <= channel["physical_slots"]
            )
            assert (
                channel["occupancy_high_water_bytes"]
                <= channel["capacity_bytes"]
            )

    def test_pf_occupancy_within_static_bound(self, pf_result):
        validate_metrics(pf_result.metrics)
        for channel in pf_result.metrics["channels"]:
            assert (
                channel["occupancy_high_water_messages"]
                <= channel["physical_slots"]
            )

    def test_lpc_channel_traffic_consistent(self, lpc_result):
        document = lpc_result.metrics
        data_messages = sum(
            c["data_messages"] for c in document["channels"]
        )
        assert data_messages == lpc_result.data_messages
        assert document["wire_byte_split"]["data"] == (
            lpc_result.payload_bytes + lpc_result.header_bytes
        )

    def test_summary_renders(self, lpc_result):
        from repro.analysis import render_metrics_summary

        text = render_metrics_summary(lpc_result.metrics)
        assert "processing elements:" in text
        assert "channels:" in text
        assert "MCM bound" in text

    def test_summary_collective_row_gated_on_traffic(self, lpc_result):
        from repro.analysis import render_metrics_summary

        document = lpc_result.metrics
        assert "collectives:" not in render_metrics_summary(document)
        document["transport"]["collective_messages"] = 3
        document["transport"]["fan_out_deliveries"] = 6
        document["transport"]["wire_bytes_saved"] = 48
        text = render_metrics_summary(document)
        assert (
            "collectives: 3 wire transfer(s) fanned out to 6 deliveries, "
            "48B saved by payload sharing" in text
        )
