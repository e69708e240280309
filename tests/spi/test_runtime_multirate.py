"""Multirate applications through the full SPI stack, functionally."""

import pytest

from repro.dataflow import DataflowGraph, repetitions_vector
from repro.mapping import Partition
from repro.spi import SpiSystem


def decimator_graph(collect):
    """src (1) -> (4)dec(1) -> (1)snk: a 4:1 decimator, q = (4,1,1)."""
    graph = DataflowGraph("decim")

    def src(k, inputs):
        return {"o": [k]}

    def decimate(k, inputs):
        return {"o": [sum(inputs["i"]) / 4.0]}

    def sink(k, inputs):
        collect.append(inputs["i"][0])
        return {}

    a = graph.actor("src", kernel=src, cycles=5)
    b = graph.actor("dec", kernel=decimate, cycles=12)
    c = graph.actor("snk", kernel=sink, cycles=3)
    a.add_output("o", rate=1)
    b.add_input("i", rate=4)
    b.add_output("o", rate=1)
    c.add_input("i", rate=1)
    graph.connect((a, "o"), (b, "i"))
    graph.connect((b, "o"), (c, "i"))
    return graph


def interpolator_graph(collect):
    """src (1) -> (1)up(3) -> (3)snk: a 1:3 interpolator, q = (1,1,1)...
    actually q = (3,3,1)? No: src rate 1 to up rate 1 (q equal), up
    produces 3 consumed 3 by snk -> q = (1,1,1)."""
    graph = DataflowGraph("interp")

    def src(k, inputs):
        return {"o": [float(k)]}

    def upsample(k, inputs):
        value = inputs["i"][0]
        return {"o": [value, value, value]}

    def sink(k, inputs):
        collect.extend(inputs["i"])
        return {}

    a = graph.actor("src", kernel=src, cycles=4)
    b = graph.actor("up", kernel=upsample, cycles=6)
    c = graph.actor("snk", kernel=sink, cycles=2)
    a.add_output("o", rate=1)
    b.add_input("i", rate=1)
    b.add_output("o", rate=3)
    c.add_input("i", rate=3)
    graph.connect((a, "o"), (b, "i"))
    graph.connect((b, "o"), (c, "i"))
    return graph


class TestDecimator:
    def test_repetitions(self):
        graph = decimator_graph([])
        assert repetitions_vector(graph) == {"src": 4, "dec": 1, "snk": 1}

    @pytest.mark.parametrize(
        "assignment",
        [
            {"src": 0, "dec": 0, "snk": 0},
            {"src": 0, "dec": 1, "snk": 0},
            {"src": 0, "dec": 1, "snk": 2},
        ],
    )
    def test_functional_across_mappings(self, assignment):
        collect = []
        graph = decimator_graph(collect)
        n_pes = max(assignment.values()) + 1
        partition = Partition(graph, n_pes, assignment)
        SpiSystem.compile(graph, partition).run(iterations=3)
        # iteration k averages samples 4k..4k+3
        assert collect == [1.5, 5.5, 9.5]

    def test_multirate_message_granularity(self):
        """The src->dec channel moves 1 token per message, 4 messages
        per iteration (send fires with the producer)."""
        collect = []
        graph = decimator_graph(collect)
        partition = Partition(graph, 2, {"src": 0, "dec": 1, "snk": 1})
        system = SpiSystem.compile(graph, partition)
        result = system.run(iterations=5)
        assert result.data_messages == 4 * 5


class TestInterpolator:
    def test_functional_across_mappings(self):
        streams = []
        for assignment in (
            {"src": 0, "up": 0, "snk": 0},
            {"src": 0, "up": 1, "snk": 2},
        ):
            collect = []
            graph = interpolator_graph(collect)
            n_pes = max(assignment.values()) + 1
            partition = Partition(graph, n_pes, assignment)
            SpiSystem.compile(graph, partition).run(iterations=4)
            streams.append(collect)
        assert streams[0] == streams[1]
        assert streams[0] == [0.0] * 3 + [1.0] * 3 + [2.0] * 3 + [3.0] * 3

    def test_payload_scales_with_rate(self):
        collect = []
        graph = interpolator_graph(collect)
        partition = Partition(graph, 2, {"src": 0, "up": 0, "snk": 1})
        system = SpiSystem.compile(graph, partition)
        result = system.run(iterations=4)
        # up->snk: one 3-token message per iteration, 4 bytes per token
        assert result.data_messages == 4
        assert result.payload_bytes == 4 * 3 * 4


class TestMultiratePipelineShape:
    def test_hsdf_schedule_orders(self):
        graph = decimator_graph([])
        partition = Partition(graph, 2, {"src": 0, "dec": 1, "snk": 1})
        system = SpiSystem.compile(graph, partition)
        # src and its 4 send invocations on PE0
        pe0 = system.schedule.orders[0]
        assert sum(1 for t in pe0 if t.startswith("src")) == 4
        report = system.describe()
        assert "src#0" in report or "src" in report


class TestMultirateAckSoundness:
    """Multirate UBS channels must keep their acknowledgments.

    The sync graph models the ack window as one iteration-granularity
    edge between the #0 invocations; for a channel carrying M > 1
    messages per iteration no such edge faithfully encodes a window of
    W *messages*, so resynchronization is not allowed to judge (and
    remove) it.  Removing it used to let the sender overrun the receive
    buffer (BufferOverflowError on generator seed 36).
    """

    def _compile_seed36(self):
        from repro.conformance import GraphShape, build_case, generate_spec

        case = build_case(generate_spec(36, GraphShape()))
        return SpiSystem.compile(case.graph, case.partition)

    def test_multirate_ubs_channels_keep_acks(self):
        system = self._compile_seed36()
        reps = system.schedule.repetitions
        multirate = [
            plan
            for plan in system.channel_plans.values()
            if reps[plan.send_actor] > 1
        ]
        assert multirate, "seed 36 must contain a multirate IPC edge"
        for plan in multirate:
            if plan.protocol == "SPI_UBS":
                assert plan.acks_enabled

    def test_seed36_runs_without_overflow(self):
        result = self._compile_seed36().run(
            iterations=12, max_cycles=10_000_000
        )
        assert result.iterations == 12
