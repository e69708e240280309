"""Unit tests for actor-to-PE assignment."""

import pytest

from repro.dataflow import GraphError
from repro.mapping import Partition


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

    def test_zero_pes_rejected(self, chain_graph):
        with pytest.raises(GraphError, match="at least one"):
            Partition(chain_graph, 0, {"A": 0, "B": 0, "C": 0})

    def test_used_pes(self, chain_graph):
        partition = Partition(chain_graph, 4, {"A": 0, "B": 3, "C": 0})
        assert partition.used_pes == [0, 3]
