"""Sweep helpers and derived metrics for the experiment harness."""

from __future__ import annotations

from typing import List, Sequence

__all__ = [
    "first_output_latency",
    "pipeline_fill_latency",
    "speedups",
]


def speedups(times: Sequence[float]) -> List[float]:
    """Speedup of each entry against the first (1-PE) entry."""
    if not times:
        raise ValueError("empty time series")
    base = times[0]
    if base <= 0:
        raise ValueError("baseline time must be positive")
    return [base / t for t in times]


def first_output_latency(trace, task_name: str) -> int:
    """Cycles until ``task_name`` completes its first execution.

    The flip side of pipelining: added delay tokens raise this number
    while lowering the iteration period — this helper quantifies the
    trade from a recorded :class:`~repro.platform.trace.TraceRecorder`.
    """
    events = trace.events_of(task_name)
    if not events:
        raise ValueError(f"no executions of {task_name!r} in the trace")
    return min(event.end for event in events)


def pipeline_fill_latency(trace, source_task: str, sink_task: str) -> int:
    """Cycles from the source's first start to the sink's first end."""
    sources = trace.events_of(source_task)
    if not sources:
        raise ValueError(f"no executions of {source_task!r} in the trace")
    start = min(event.start for event in sources)
    return first_output_latency(trace, sink_task) - start
