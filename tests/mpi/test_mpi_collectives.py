"""MPI baseline tests for collective connections.

The baseline's MPI_Bcast-style path amortizes the *software* send cost
(one copy out of user space per firing) but still injects one eager
message per destination rank — there is no wire-level payload sharing,
which is exactly the contrast the SPI collectives exploit.
"""

import pytest

from repro.dataflow import DataflowGraph
from repro.mapping import Partition
from repro.mpi import MpiConfig, MpiSystem


def _broadcast_graph(collected, n_sinks=2, rate=2):
    graph = DataflowGraph("bcast")
    src = graph.actor(
        "src", kernel=lambda k, ins: {"o": [k * 10 + j for j in range(rate)]},
        cycles=10,
    )
    src.add_output("o", rate=rate)
    for j in range(n_sinks):

        def sink(k, ins, j=j):
            collected[j].extend(ins["i"])
            return {}

        snk = graph.actor(f"snk{j}", kernel=sink, cycles=5)
        snk.add_input("i", rate=rate)
    graph.add_broadcast("src.o", [f"snk{j}.i" for j in range(n_sinks)])
    return graph


class TestBroadcast:
    def test_every_rank_receives_the_full_copy(self):
        collected = {0: [], 1: [], 2: []}
        graph = _broadcast_graph(collected, n_sinks=3)
        partition = Partition.manual(
            graph, {"src": 0, "snk0": 1, "snk1": 2, "snk2": 0}
        )
        MpiSystem.compile(graph, partition).run(iterations=3)
        expected = [0, 1, 10, 11, 20, 21]
        assert collected[0] == expected
        assert collected[1] == expected
        assert collected[2] == expected

    def test_one_message_per_destination_rank(self):
        """No wire sharing in the baseline: 2 remote ranks x 4 firings
        means 8 data messages even though the payload is identical."""
        collected = {0: [], 1: []}
        graph = _broadcast_graph(collected, n_sinks=2)
        partition = Partition.manual(graph, {"src": 0, "snk0": 1, "snk1": 2})
        result = MpiSystem.compile(graph, partition).run(iterations=4)
        assert result.data_messages == 8

    def test_collective_branches_forced_eager(self):
        """Rendezvous would serialize the fan-out on RTS/CTS round trips,
        so collective origins stay on the eager path regardless of size."""
        graph = DataflowGraph("big")
        src = graph.actor("src", cycles=10)
        src.add_output("o", rate=200)
        for j in range(2):
            snk = graph.actor(f"snk{j}", cycles=5)
            snk.add_input("i", rate=200)
        graph.add_broadcast("src.o", ["snk0.i", "snk1.i"])
        partition = Partition.manual(graph, {"src": 0, "snk0": 1, "snk1": 2})
        system = MpiSystem.compile(
            graph, partition, MpiConfig(eager_threshold_bytes=64)
        )
        assert not any(system.channel_modes.values())
        result = system.run(iterations=2)
        assert result.ack_messages == 0  # eager: no RTS/CTS traffic


class TestGather:
    @pytest.mark.parametrize(
        "config, data_messages, control_messages",
        [
            (MpiConfig(), 6, 0),
            # gather members are point-to-point sends, so a 1-byte eager
            # threshold puts every branch through the RTS/CTS handshake
            (MpiConfig(eager_threshold_bytes=1), 6, 12),
        ],
        ids=["eager", "rendezvous"],
    )
    def test_gather_assembles_at_the_root(
        self, config, data_messages, control_messages
    ):
        collected = []
        graph = DataflowGraph("gath")
        for j in range(2):
            src = graph.actor(
                f"src{j}",
                kernel=(lambda j: lambda k, ins: {"o": [j]})(j),
                cycles=5,
            )
            src.add_output("o", rate=1)
        snk = graph.actor(
            "snk",
            kernel=lambda k, ins: collected.append(list(ins["i"])) or {},
            cycles=10,
        )
        snk.add_input("i", rate=2)
        graph.add_gather(["src0.o", "src1.o"], "snk.i")
        partition = Partition.manual(graph, {"src0": 0, "src1": 1, "snk": 2})
        result = MpiSystem.compile(graph, partition, config).run(iterations=3)
        assert collected == [[0, 1]] * 3
        assert result.data_messages == data_messages
        assert result.ack_messages == control_messages
