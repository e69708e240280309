"""Unit tests for SPI actor insertion (paper §2)."""

import pytest

from repro.dataflow import GraphError, build_pass, repetitions_vector, vts_convert
from repro.mapping import Partition
from repro.spi import insert_spi_actors


class TestInsertion:
    def test_pair_inserted_per_crossing_edge(self, chain_graph, two_pe_partition):
        insertion = insert_spi_actors(chain_graph, two_pe_partition)
        # 3 original actors + 2 pairs of SPI actors
        assert len(insertion.graph) == 3 + 4
        assert len(insertion.channels) == 2

    def test_local_edge_untouched(self, chain_graph):
        partition = Partition.manual(chain_graph, {"A": 0, "B": 0, "C": 1})
        insertion = insert_spi_actors(chain_graph, partition)
        assert len(insertion.channels) == 1
        local = insertion.graph.edge_between("A", "B")
        assert local.delay == 0

    def test_single_pe_inserts_nothing(self, chain_graph):
        partition = Partition.single_processor(chain_graph)
        insertion = insert_spi_actors(chain_graph, partition)
        assert not insertion.channels
        assert len(insertion.graph) == 3

    def test_spi_actors_inherit_endpoint_pes(self, chain_graph, two_pe_partition):
        insertion = insert_spi_actors(chain_graph, two_pe_partition)
        for origin, (ipc_edge, pair, _) in insertion.channels.items():
            edge = chain_graph.edges[0] if origin.startswith("A") else chain_graph.edges[1]
            src_pe = two_pe_partition.assignment[edge.src_actor.name]
            dst_pe = two_pe_partition.assignment[edge.snk_actor.name]
            assert insertion.partition.assignment[pair.send] == src_pe
            assert insertion.partition.assignment[pair.recv] == dst_pe

    def test_inserted_graph_stays_consistent(self, chain_graph, two_pe_partition):
        insertion = insert_spi_actors(chain_graph, two_pe_partition)
        reps = repetitions_vector(insertion.graph)
        assert all(count == 1 for count in reps.values())
        build_pass(insertion.graph)

    def test_delay_moves_to_consumer_side(self, cyclic_graph):
        partition = Partition.manual(cyclic_graph, {"A": 0, "B": 1})
        insertion = insert_spi_actors(cyclic_graph, partition)
        (_, pair, _) = insertion.channels["B.o->A.i"]
        delivered = insertion.graph.edge_between(pair.recv, "A")
        assert delivered.delay == 1
        ipc = insertion.channels["B.o->A.i"][0]
        assert ipc.delay == 0

    def test_initial_token_values_preserved(self, cyclic_graph):
        cyclic_graph.edge_between("B", "A").set_initial_tokens([99])
        partition = Partition.manual(cyclic_graph, {"A": 0, "B": 1})
        insertion = insert_spi_actors(cyclic_graph, partition)
        (_, pair, _) = insertion.channels["B.o->A.i"]
        delivered = insertion.graph.edge_between(pair.recv, "A")
        assert delivered.initial_tokens == [99]

    def test_dynamic_flag_from_conversion(self, fig1_graph):
        conversion = vts_convert(fig1_graph)
        partition = Partition(conversion.graph, 2, {"A": 0, "B": 1})
        insertion = insert_spi_actors(
            conversion.graph, partition, conversion=conversion
        )
        (_, _, dynamic) = next(iter(insertion.channels.values()))
        assert dynamic

    def test_dynamic_graph_rejected(self, fig1_graph):
        partition = Partition(fig1_graph, 2, {"A": 0, "B": 1})
        with pytest.raises(GraphError, match="vts_convert"):
            insert_spi_actors(fig1_graph, partition)

    def test_multirate_edge_rates_preserved(self, multirate_graph):
        partition = Partition.manual(multirate_graph, {"A": 0, "B": 1, "C": 1})
        insertion = insert_spi_actors(multirate_graph, partition)
        (ipc_edge, pair, _) = insertion.channels["A.o->B.i"]
        # send fires with the producer's rate (2 tokens per message)
        assert ipc_edge.source.rate == 2
        reps = repetitions_vector(insertion.graph)
        assert reps[pair.send] == reps["A"] == 3
        assert reps[pair.recv] == reps["A"] == 3

    def test_send_cycles_scale_with_payload(self, multirate_graph):
        partition = Partition.manual(multirate_graph, {"A": 0, "B": 1, "C": 1})
        insertion = insert_spi_actors(multirate_graph, partition)
        (_, pair, _) = insertion.channels["A.o->B.i"]
        send = insertion.graph.get_actor(pair.send)
        # 2 tokens x 4 bytes = 2 words + 2 overhead cycles
        assert send.execution_cycles(0) == 4
