"""Unit tests for flat and looped schedules."""

import pytest

from repro.dataflow import (
    DataflowGraph,
    FlatSchedule,
    GraphError,
    LoopedSchedule,
    ScheduleLoop,
    build_pass,
    repetitions_vector,
    single_appearance_schedule,
)


class TestFlatSchedule:
    def test_counts_and_validity(self, multirate_graph):
        flat = FlatSchedule(multirate_graph, build_pass(multirate_graph))
        assert flat.counts() == {"A": 3, "B": 2, "C": 1}
        assert flat.counts() == repetitions_vector(multirate_graph)

    def test_underflow_detected(self, chain_graph):
        b = chain_graph.get_actor("B")
        flat = FlatSchedule(chain_graph, [b])
        with pytest.raises(GraphError, match="underflow"):
            flat.validate_admissible()

    def test_profile_makespan_sums_cycles(self, chain_graph):
        flat = FlatSchedule(chain_graph, build_pass(chain_graph))
        profile = flat.profile()
        assert profile.makespan_cycles == 10 + 20 + 5
        assert profile.firings == 3

    def test_profile_buffer_tokens(self, multirate_graph):
        flat = FlatSchedule(multirate_graph, build_pass(multirate_graph))
        profile = flat.profile()
        assert sum(profile.buffer_tokens.values()) == 4 + 2

    def test_foreign_actor_rejected(self, chain_graph):
        other = DataflowGraph()
        x = other.actor("X")
        with pytest.raises(GraphError, match="does not belong"):
            FlatSchedule(chain_graph, [x])


class TestScheduleLoop:
    def test_expand_nested(self):
        inner = ScheduleLoop(2, ("B",))
        outer = ScheduleLoop(2, ("A", inner))
        assert outer.expand() == ["A", "B", "B", "A", "B", "B"]

    def test_str_rendering(self):
        loop = ScheduleLoop(3, ("A", ScheduleLoop(2, ("B",))))
        assert str(loop) == "(3 A (2 B))"

    def test_validation(self):
        with pytest.raises(GraphError):
            ScheduleLoop(0, ("A",))
        with pytest.raises(GraphError):
            ScheduleLoop(1, ())


class TestLoopedSchedule:
    def test_single_appearance_construction(self, multirate_graph):
        looped = single_appearance_schedule(multirate_graph)
        flat = looped.flatten()
        assert flat.counts() == repetitions_vector(multirate_graph)
        flat.validate_admissible()

    def test_single_appearance_text(self, multirate_graph):
        looped = single_appearance_schedule(multirate_graph)
        assert str(looped) == "(1 (3 A) (2 B) (1 C))"

    def test_flatten_resolves_actor_names(self, chain_graph):
        root = ScheduleLoop(1, ("A", "B", "C"))
        flat = LoopedSchedule(chain_graph, root).flatten()
        assert [a.name for a in flat] == ["A", "B", "C"]
