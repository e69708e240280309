"""Multiprocessor mapping: partitioning, self-timed scheduling, IPC and
synchronization graphs, resynchronization, and cycle-mean analysis."""

from repro.mapping.ipc_graph import build_ipc_graph
from repro.mapping.mcm import (
    McmResult,
    SelfTimedTrace,
    maximum_cycle_mean,
    maximum_cycle_mean_result,
    simulate_selftimed,
)
from repro.mapping.partition import Partition
from repro.mapping.pipelining import (
    PipeliningResult,
    auto_pipeline,
    insert_pipeline_delays,
    stage_assignment,
)
from repro.mapping.resync import (
    ResynchronizationResult,
    resynchronize,
)
from repro.mapping.selftimed import SelfTimedSchedule, build_selftimed_schedule
from repro.mapping.sync_graph import derive_sync_graph
from repro.mapping.timed_graph import EdgeKind, TimedEdge, TimedGraph, TimedVertex

__all__ = [
    "build_ipc_graph",
    "McmResult",
    "SelfTimedTrace",
    "maximum_cycle_mean",
    "maximum_cycle_mean_result",
    "simulate_selftimed",
    "Partition",
    "PipeliningResult",
    "auto_pipeline",
    "insert_pipeline_delays",
    "stage_assignment",
    "ResynchronizationResult",
    "resynchronize",
    "SelfTimedSchedule",
    "build_selftimed_schedule",
    "derive_sync_graph",
    "EdgeKind",
    "TimedEdge",
    "TimedGraph",
    "TimedVertex",
]
