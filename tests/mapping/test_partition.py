"""Unit tests for actor-to-PE assignment."""

import pytest

from repro.dataflow import GraphError
from repro.mapping import Partition, static_levels


class TestStaticLevels:
    def test_chain_levels(self, chain_graph):
        levels = static_levels(chain_graph)
        # level = own cycles + longest downstream path
        assert levels["C"] == 5
        assert levels["B"] == 25
        assert levels["A"] == 35

    def test_delay_edges_ignored(self, cyclic_graph):
        levels = static_levels(cyclic_graph)
        assert levels["A"] == 4 + 6
        assert levels["B"] == 6


class TestPartition:
    def test_manual(self, chain_graph):
        partition = Partition.manual(chain_graph, {"A": 0, "B": 1, "C": 0})
        assert partition.n_pes == 2
        assert partition.pe_of(chain_graph.get_actor("B")) == 1
        assert partition.assignment == {"A": 0, "B": 1, "C": 0}

    def test_manual_missing_actor_rejected(self, chain_graph):
        with pytest.raises(GraphError, match="does not assign"):
            Partition.manual(chain_graph, {"A": 0, "B": 1})

    def test_manual_unknown_actor_rejected(self, chain_graph):
        with pytest.raises(GraphError, match="unknown"):
            Partition.manual(
                chain_graph, {"A": 0, "B": 0, "C": 0, "ghost": 1}
            )

    def test_out_of_range_pe_rejected(self, chain_graph):
        with pytest.raises(GraphError, match="out of range"):
            Partition(chain_graph, 1, {"A": 0, "B": 1, "C": 0})

    def test_single_processor(self, chain_graph):
        partition = Partition.single_processor(chain_graph)
        assert partition.n_pes == 1
        assert not partition.interprocessor_edges()

    def test_interprocessor_edges(self, chain_graph, two_pe_partition):
        crossing = two_pe_partition.interprocessor_edges()
        assert {e.name for e in crossing} == {"A.o->B.i", "B.o->C.i"}
        assert not two_pe_partition.local_edges()

    def test_round_robin_spreads(self, chain_graph):
        partition = Partition.assign(chain_graph, 3, strategy="round_robin")
        assert sorted(partition.assignment.values()) == [0, 1, 2]

    def test_list_schedule_covers_everything(self, multirate_graph):
        partition = Partition.assign(multirate_graph, 2, strategy="list")
        partition.validate()
        assert set(partition.assignment) == {"A", "B", "C"}

    def test_list_schedule_uses_parallelism_when_worth_it(self):
        """A fork of two equally heavy branches should use both PEs."""
        from repro.dataflow import DataflowGraph

        graph = DataflowGraph("fork")
        src = graph.actor("src", cycles=1)
        left = graph.actor("left", cycles=500)
        right = graph.actor("right", cycles=500)
        src.add_output("l")
        src.add_output("r")
        left.add_input("i")
        right.add_input("i")
        graph.connect((src, "l"), (left, "i"))
        graph.connect((src, "r"), (right, "i"))
        partition = Partition.assign(graph, 2, strategy="list")
        assert partition.assignment["left"] != partition.assignment["right"]

    def test_unknown_strategy_rejected(self, chain_graph):
        with pytest.raises(GraphError, match="strategy"):
            Partition.assign(chain_graph, 2, strategy="quantum")

    def test_zero_pes_rejected(self, chain_graph):
        with pytest.raises(GraphError, match="at least one"):
            Partition(chain_graph, 0, {"A": 0, "B": 0, "C": 0})

    def test_used_pes(self, chain_graph):
        partition = Partition(chain_graph, 4, {"A": 0, "B": 3, "C": 0})
        assert partition.used_pes == [0, 3]
