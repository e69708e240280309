"""Batched (blocked) execution: partitioning, admissibility, runtime.

Covers the mapping-layer surface of heterogeneous batching:

* :class:`Partition` batch/PE-class queries and validation;
* :func:`batch_is_admissible` / :func:`max_feasible_batch` — the
  blocked-schedule deadlock-freedom check (feedback loops clamp);
* :class:`BatchSchedule` macro-pass arithmetic (exact tail);
* end-to-end batched runs: counters, the gpp no-op rule, compiled vs
  interpreted equivalence, metrics-document invariants, and the
  repetitions > 1 pass-cursor regression.
"""

import pytest

from repro.apps.particle_filter import (
    CrackGrowthModel,
    build_particle_filter_graph,
    simulate_crack_history,
)
from repro.dataflow import DataflowGraph, GraphError
from repro.mapping import Partition
from repro.mapping.selftimed import batch_is_admissible, max_feasible_batch
from repro.observability import validate_metrics
from repro.platform import GPP, PEClass
from repro.spi import SpiSystem
from repro.spi.actors import BatchSchedule

ACCEL = PEClass(
    kind="accelerator",
    dispatch_cycles=20,
    cycles_per_element=0.5,
    resource_cost=2.0,
)


def pipeline_graph():
    """Feed-forward three-stage pipeline: admits any blocking factor."""
    graph = DataflowGraph("batch-pipe")
    a = graph.actor("A", cycles=10)
    b = graph.actor("B", cycles=20)
    c = graph.actor("C", cycles=15)
    a.add_output("o")
    b.add_input("i")
    b.add_output("o")
    c.add_input("i")
    graph.connect((a, "o"), (b, "i"))
    graph.connect((b, "o"), (c, "i"))
    return graph


def hetero_partition(graph, batch_size):
    return Partition(
        graph,
        2,
        {"A": 0, "B": 1, "C": 0},
        pe_classes={1: ACCEL},
        batch_size=batch_size,
    )


class TestPartitionBatchApi:
    def test_requested_batch_is_noop_without_accelerators(self):
        graph = pipeline_graph()
        partition = Partition(
            graph, 2, {"A": 0, "B": 1, "C": 0}, batch_size=8
        )
        assert not partition.has_accelerators
        assert partition.requested_batch == 1

    def test_requested_batch_with_accelerator(self):
        partition = hetero_partition(pipeline_graph(), batch_size=4)
        assert partition.has_accelerators
        assert partition.requested_batch == 4
        assert partition.pe_class_of(0) is GPP
        assert partition.pe_class_of(1) is ACCEL

    def test_validation(self):
        graph = pipeline_graph()
        assignment = {"A": 0, "B": 1, "C": 0}
        with pytest.raises(GraphError, match="batch_size"):
            Partition(graph, 2, assignment, batch_size=0).validate()
        with pytest.raises(GraphError, match="pe_classes"):
            Partition(
                graph, 2, assignment, pe_classes={5: ACCEL}
            ).validate()
        with pytest.raises(GraphError, match="PEClass"):
            Partition(
                graph, 2, assignment, pe_classes={1: "accelerator"}
            ).validate()


class TestBatchAdmissibility:
    def test_feed_forward_admits_any_batch(self):
        system = SpiSystem.compile(
            pipeline_graph(), hetero_partition(pipeline_graph(), 1)
        )
        assert batch_is_admissible(system.schedule, 4)
        assert max_feasible_batch(system.schedule, 8) == 8

    def test_batch_one_always_admissible(self):
        system = SpiSystem.compile(
            pipeline_graph(), hetero_partition(pipeline_graph(), 1)
        )
        assert batch_is_admissible(system.schedule, 1)

    def test_validation(self):
        system = SpiSystem.compile(
            pipeline_graph(), hetero_partition(pipeline_graph(), 1)
        )
        with pytest.raises(ValueError, match="batch"):
            batch_is_admissible(system.schedule, 0)
        with pytest.raises(ValueError, match="batch"):
            max_feasible_batch(system.schedule, 0)

    def test_particle_filter_feedback_clamps_to_1(self):
        # the PF capacity feedback loop carries too few delay tokens
        # for a burst of 4: the compile-time clamp must fall back to 1
        model = CrackGrowthModel()
        _, observations = simulate_crack_history(model, steps=3)
        system = build_particle_filter_graph(
            model, observations, n_particles=32, n_pes=2
        )
        batched = Partition(
            system.graph,
            system.partition.n_pes,
            dict(system.partition.assignment),
            pe_classes={1: ACCEL},
            batch_size=4,
        )
        compiled = SpiSystem.compile(system.graph, batched)
        assert compiled.batch == 1


class TestBatchSchedule:
    def test_exact_tail(self):
        plan = BatchSchedule(iterations=6, batch=4)
        assert plan.counts == [4, 2]
        assert plan.passes == 2

    def test_multiple_of_batch_has_no_tail(self):
        assert BatchSchedule(iterations=8, batch=4).counts == [4, 4]

    def test_batch_larger_than_iterations(self):
        assert BatchSchedule(iterations=3, batch=8).counts == [3]

    def test_validation(self):
        with pytest.raises(ValueError, match="iterations"):
            BatchSchedule(iterations=0, batch=2)
        with pytest.raises(ValueError, match="batch"):
            BatchSchedule(iterations=4, batch=0)


class TestBatchedExecution:
    def run_pipeline(self, batch_size, accelerate=True):
        graph = pipeline_graph()
        if accelerate:
            partition = hetero_partition(graph, batch_size)
        else:
            partition = Partition(
                graph, 2, {"A": 0, "B": 1, "C": 0}, batch_size=batch_size
            )
        system = SpiSystem.compile(graph, partition)
        return system, system.run(iterations=6, metrics=True)

    def test_batched_counters(self):
        system, result = self.run_pipeline(batch_size=4)
        assert system.batch == 4
        assert result.batch == 4
        assert result.batch_dispatches > 0
        assert result.batched_firings >= 2 * result.batch_dispatches
        # B on the accelerator runs 6 firings as bursts of 4 + 2:
        # (4-1 + 2-1) * dispatch_cycles amortized away
        assert result.amortized_dispatch_cycles_saved > 0

    def test_batching_amortizes_dispatch_overhead(self):
        _, plain = self.run_pipeline(batch_size=1)
        _, batched = self.run_pipeline(batch_size=4)
        assert batched.cycles < plain.cycles
        assert batched.data_messages == plain.data_messages

    def test_gpp_batch_request_is_noop(self):
        system, batched = self.run_pipeline(batch_size=4, accelerate=False)
        _, plain = self.run_pipeline(batch_size=1, accelerate=False)
        assert system.batch == 1
        assert batched.batch_dispatches == 0
        assert batched.batched_firings == 0
        assert batched.cycles == plain.cycles
        assert batched.data_messages == plain.data_messages

    def test_metrics_document_batch_invariants(self):
        system, result = self.run_pipeline(batch_size=4)
        document = result.metrics
        validate_metrics(document)  # schema + soundness checks
        assert document["run"]["batch"] == system.batch
        sim = document["simulator"]
        assert sim["batched_firings"] == result.batched_firings
        assert sim["batch_dispatches"] == result.batch_dispatches
        kinds = {pe["index"]: pe["pe_class"] for pe in document["pes"]}
        assert kinds[0] == "gpp"
        assert kinds[1] == "accelerator"
        # batched sends stay B separate wire messages, but B slots can
        # be in flight per macro-pass: the physical bound grows by batch
        for channel in document["channels"]:
            assert (
                channel["physical_slots"]
                == channel["bound_messages"] + system.batch
            )


class TestPassCursorWithRepetitions:
    def multirate_graph(self):
        # B has repetitions 3: it occupies three program entries per
        # macro-pass on its PE
        graph = DataflowGraph("batch-multirate")
        a = graph.actor("A", cycles=10)
        b = graph.actor("B", cycles=5)
        c = graph.actor("C", cycles=8)
        a.add_output("o", rate=3)
        b.add_input("i")
        b.add_output("o")
        c.add_input("i", rate=3)
        graph.connect((a, "o"), (b, "i"))
        graph.connect((b, "o"), (c, "i"))
        return graph

    def test_repeated_actor_fires_full_burst(self):
        # Regression pin: the pass cursor must advance only after a
        # task's *last* occurrence in the program pass.  Advancing per
        # execution made B's 2nd/3rd occurrences of pass 0 read the
        # tail burst count (counts=[4, 2] for 6 iterations), under-fire
        # 4+2+2 of its 12 due firings, and starve C into
        # SimulationDeadlock.
        graph = self.multirate_graph()
        partition = Partition(
            graph,
            2,
            {"A": 0, "B": 0, "C": 1},
            pe_classes={1: ACCEL},
            batch_size=4,
        )
        system = SpiSystem.compile(graph, partition)
        assert system.batch == 4
        result = system.run(iterations=6, metrics=True)
        assert result.iterations == 6
        # ``firings`` stays the logical invocation count for actor and
        # send/receive tasks; only SPI_init genuinely runs per
        # macro-pass instead of per iteration (setup is amortized), so
        # each PE reports exactly (iterations - passes) fewer firings
        # than the unbatched run.
        plain_partition = Partition(
            graph,
            2,
            {"A": 0, "B": 0, "C": 1},
            pe_classes={1: ACCEL},
            batch_size=1,
        )
        plain = SpiSystem.compile(graph, plain_partition).run(iterations=6)
        init_delta = 6 - BatchSchedule(iterations=6, batch=4).passes
        assert [pe.firings for pe in result.pe_stats] == [
            pe.firings - init_delta for pe in plain.pe_stats
        ]

    def test_batched_run_matches_unbatched_traffic(self):
        graph = self.multirate_graph()

        def run(batch_size):
            partition = Partition(
                graph,
                2,
                {"A": 0, "B": 0, "C": 1},
                pe_classes={1: ACCEL},
                batch_size=batch_size,
            )
            return SpiSystem.compile(graph, partition).run(iterations=6)

        assert run(4).data_messages == run(1).data_messages
