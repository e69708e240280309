"""Unit tests for SPI actor insertion (paper §2) and the shared lowering."""

import dataclasses

import pytest

from repro.dataflow import GraphError, build_pass, repetitions_vector, vts_convert
from repro.mapping import Partition
from repro.mpi import MpiConfig, MpiSystem
from repro.spi import SpiConfig, SpiSystem, insert_spi_actors, lower
from tests.conftest import synchronization_edges


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


def _spi_compile(graph, partition, lowering):
    return SpiSystem.compile(graph, partition, SpiConfig(), lowering=lowering)


def _mpi_compile(graph, partition, lowering):
    return MpiSystem.compile(graph, partition, MpiConfig(), lowering=lowering)


COMPILES = pytest.mark.parametrize(
    "compile_fn", [_spi_compile, _mpi_compile], ids=["spi", "mpi"]
)


class TestLowering:
    def test_lowering_is_frozen_and_copies_the_assignment(
        self, multirate_graph
    ):
        partition = Partition.manual(multirate_graph, {"A": 0, "B": 1, "C": 1})
        lowering = lower(multirate_graph, partition)
        assert lowering.graph is multirate_graph
        assert lowering.assignment == partition.assignment
        assert lowering.assignment is not partition.assignment
        assert lowering.conversion is None
        assert lowering.schedule.graph is lowering.insertion.graph
        with pytest.raises(dataclasses.FrozenInstanceError):
            lowering.n_pes = 4

    def test_sync_graph_built_lazily_and_never_mutated(
        self, chain_graph, two_pe_partition
    ):
        lowering = lower(chain_graph, two_pe_partition)
        MpiSystem.compile(chain_graph, two_pe_partition, lowering=lowering)
        assert "sync_graph" not in vars(lowering)
        base = lowering.sync_graph
        edges = base.rows()
        # forced UBS adds ack edges to the sync graph, resync prunes it
        raw = SpiSystem.compile(
            chain_graph,
            two_pe_partition,
            SpiConfig(protocol_policy="always_ubs", resynchronize=False),
            lowering=lowering,
        )
        assert any(
            e.kind == "ack" for e in synchronization_edges(raw.sync_graph)
        )
        resynced = SpiSystem.compile(
            chain_graph,
            two_pe_partition,
            SpiConfig(protocol_policy="always_ubs"),
            lowering=lowering,
        )
        assert resynced.resync_result is not None
        assert lowering.sync_graph is base
        assert base.rows() == edges
        assert "ack" not in base.kind

    @COMPILES
    def test_other_graph_object_rejected(
        self, compile_fn, chain_graph, two_pe_partition
    ):
        lowering = lower(chain_graph, two_pe_partition)
        twin = chain_graph.copy_structure(chain_graph.name)
        partition = Partition(twin, 2, dict(two_pe_partition.assignment))
        with pytest.raises(ValueError, match="belongs to graph"):
            compile_fn(twin, partition, lowering)

    @COMPILES
    def test_other_assignment_rejected(
        self, compile_fn, chain_graph, two_pe_partition
    ):
        lowering = lower(chain_graph, two_pe_partition)
        moved = Partition.manual(chain_graph, {"A": 0, "B": 1, "C": 1})
        with pytest.raises(ValueError, match=r"different assignment.*'C'"):
            compile_fn(chain_graph, moved, lowering)

    @COMPILES
    def test_other_pe_count_rejected(
        self, compile_fn, chain_graph, two_pe_partition
    ):
        lowering = lower(chain_graph, two_pe_partition)
        wider = Partition(chain_graph, 3, dict(two_pe_partition.assignment))
        with pytest.raises(ValueError, match="built for 2 PEs.*has 3"):
            compile_fn(chain_graph, wider, lowering)

    @COMPILES
    def test_matching_lowering_accepted(
        self, compile_fn, chain_graph, two_pe_partition
    ):
        lowering = lower(chain_graph, two_pe_partition)
        equal = Partition.manual(chain_graph, dict(two_pe_partition.assignment))
        system = compile_fn(chain_graph, equal, lowering)
        assert system.insertion is lowering.insertion
