"""Unit tests for self-timed schedule construction."""

import pytest

from repro.dataflow import GraphError
from repro.mapping import Partition, build_selftimed_schedule


class TestHomogeneous:
    def test_orders_follow_pass(self, chain_graph, two_pe_partition):
        schedule = build_selftimed_schedule(chain_graph, two_pe_partition)
        assert schedule.orders[0] == ["A", "C"]
        assert schedule.orders[1] == ["B"]
        assert schedule.homogeneous

    def test_pe_lookup(self, chain_graph, two_pe_partition):
        schedule = build_selftimed_schedule(chain_graph, two_pe_partition)
        assert schedule.task_pe["B"] == 1
        assert schedule.orders[schedule.task_pe["C"]].index("C") == 1

    def test_single_pe(self, chain_graph):
        partition = Partition.single_processor(chain_graph)
        schedule = build_selftimed_schedule(chain_graph, partition)
        assert schedule.orders[0] == ["A", "B", "C"]


class TestMultirate:
    def test_invocation_tasks(self, multirate_graph):
        partition = Partition.manual(
            multirate_graph, {"A": 0, "B": 1, "C": 1}
        )
        schedule = build_selftimed_schedule(multirate_graph, partition)
        assert schedule.orders[0] == ["A#0", "A#1", "A#2"]
        assert schedule.orders[1] == ["B#0", "B#1", "C#0"]

    def test_task_graph_is_expansion(self, multirate_graph):
        partition = Partition.single_processor(multirate_graph)
        schedule = build_selftimed_schedule(multirate_graph, partition)
        assert len(schedule.task_table.tasks) == 6
        assert not schedule.homogeneous

    def test_invocations_inherit_actor_pe(self, multirate_graph):
        partition = Partition.manual(
            multirate_graph, {"A": 1, "B": 0, "C": 1}
        )
        schedule = build_selftimed_schedule(multirate_graph, partition)
        for task, pe in schedule.task_pe.items():
            origin = task.split("#")[0]
            assert pe == partition.assignment[origin]

    def test_validation_catches_double_booking(self, chain_graph, two_pe_partition):
        schedule = build_selftimed_schedule(chain_graph, two_pe_partition)
        schedule.orders[1].append("A")  # A already on PE0
        with pytest.raises(GraphError, match="scheduled on both"):
            schedule.validate()

    def test_tasks_enumeration(self, chain_graph, two_pe_partition):
        schedule = build_selftimed_schedule(chain_graph, two_pe_partition)
        tasks = [name for order in schedule.orders.values() for name in order]
        assert sorted(tasks) == ["A", "B", "C"]
