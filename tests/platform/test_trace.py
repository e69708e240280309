"""Unit tests for execution-trace recording and rendering."""

import pytest

from repro.dataflow import DataflowGraph
from repro.mapping import Partition
from repro.platform.trace import PEExclusivityError, TraceEvent, TraceRecorder
from repro.spi import SpiSystem


class TestTraceEvent:
    def test_duration(self):
        event = TraceEvent(pe=0, task="t", start=5, end=12, iteration=0)
        assert event.end - event.start == 7

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            TraceEvent(pe=0, task="t", start=5, end=4, iteration=0)


class TestTraceRecorder:
    def recorder(self):
        trace = TraceRecorder()
        trace.record(0, "a", 0, 10, 0)
        trace.record(1, "b", 5, 20, 0)
        trace.record(0, "a", 10, 25, 1)
        return trace

    def test_queries(self):
        trace = self.recorder()
        assert len(trace) == 3
        assert len(trace.events_of("b")) == 1
        assert trace.makespan() == 25

    def test_task_statistics(self):
        stats = self.recorder().task_statistics()
        assert stats["a"]["count"] == 2
        assert stats["a"]["total"] == 25
        assert stats["a"]["mean"] == 12.5

    def test_exclusivity_check_passes_on_serial_pe(self):
        self.recorder().validate_pe_exclusivity()

    def test_exclusivity_check_catches_overlap(self):
        trace = TraceRecorder()
        trace.record(0, "a", 0, 10, 0)
        trace.record(0, "b", 5, 8, 0)
        with pytest.raises(PEExclusivityError, match="overlaps"):
            trace.validate_pe_exclusivity()

    def test_exclusivity_error_is_not_an_assertion(self):
        # Must survive `python -O`: a real exception type, not `assert`.
        assert not issubclass(PEExclusivityError, AssertionError)

    def test_csv(self):
        csv = self.recorder().to_csv()
        lines = csv.splitlines()
        assert lines[0] == "pe,task,iteration,start,end,duration"
        assert len(lines) == 4

    def test_gantt_renders(self):
        trace = TraceRecorder()
        trace.record(0, "fft", 0, 10, 0)
        trace.record(1, "lu", 5, 20, 0)
        text = trace.gantt(width=25)
        assert "PE0" in text and "PE1" in text
        assert "a=fft" in text  # legend: symbol=task
        assert "b=lu" in text
        assert "." in text  # idle time visible

    def test_empty_gantt(self):
        assert "(empty trace)" in TraceRecorder().gantt()

    def test_gantt_header_aligns_with_bars(self):
        trace = TraceRecorder()
        trace.record(0, "t", 0, 10, 0)
        for width in (8, 25, 72):
            header, row = trace.gantt(width=width).splitlines()[:2]
            bar_open = row.index("|")
            # "0" sits under the first cell of the bar
            assert header[bar_open + 1] == "0"
            assert header.endswith("cycles")

    def test_gantt_short_horizon_does_not_collapse_header(self):
        # horizon (3) far shorter than the width the old math assumed
        trace = TraceRecorder()
        trace.record(0, "t", 0, 3, 0)
        text = trace.gantt(width=72)
        header = text.splitlines()[0]
        assert "3 cycles" in header


class TestRuntimeIntegration:
    def make_system(self):
        graph = DataflowGraph("traced")
        a = graph.actor("A", cycles=10)
        b = graph.actor("B", cycles=20)
        a.add_output("o")
        b.add_input("i")
        graph.connect((a, "o"), (b, "i"))
        partition = Partition.manual(graph, {"A": 0, "B": 1})
        return SpiSystem.compile(graph, partition)

    def test_run_without_trace_by_default(self):
        result = self.make_system().run(iterations=2)
        assert result.trace is None

    def test_run_with_trace(self):
        result = self.make_system().run(iterations=3, trace=True)
        trace = result.trace
        assert trace is not None
        # every computation task appears once per iteration
        assert len(trace.events_of("fire:A")) == 3
        assert len(trace.events_of("fire:B")) == 3
        trace.validate_pe_exclusivity()
        assert trace.makespan() == result.cycles

    def test_trace_times_match_cycle_models(self):
        result = self.make_system().run(iterations=2, trace=True)
        for event in result.trace.events_of("fire:B"):
            assert event.end - event.start == 20
