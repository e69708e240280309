"""Dataflow substrate: graphs, SDF analysis, schedules, VTS conversion."""

from repro.dataflow.buffers import sdf_buffer_bounds, simulate_edge_occupancy
from repro.dataflow.dynamic import DynamicRate
from repro.dataflow.graph import (
    Actor,
    DataflowGraph,
    Direction,
    Edge,
    GraphError,
    Port,
)
from repro.dataflow.hsdf import hsdf_expand, invocation_name
from repro.dataflow.kpn import KpnChannelSpec, KpnNetwork, KpnProcess
from repro.dataflow.schedule import (
    FlatSchedule,
    LoopedSchedule,
    ScheduleLoop,
    ScheduleProfile,
    single_appearance_schedule,
)
from repro.dataflow.sdf import (
    DeadlockError,
    InconsistentGraphError,
    SdfError,
    build_pass,
    is_consistent,
    repetitions_vector,
    total_firings_per_iteration,
)
from repro.dataflow.vts import (
    PackedToken,
    VtsConversion,
    VtsEdgeInfo,
    minimum_feedback_delay,
    vts_convert,
)

__all__ = [
    "Actor",
    "DataflowGraph",
    "Direction",
    "Edge",
    "GraphError",
    "Port",
    "DynamicRate",
    "sdf_buffer_bounds",
    "simulate_edge_occupancy",
    "FlatSchedule",
    "LoopedSchedule",
    "ScheduleLoop",
    "ScheduleProfile",
    "single_appearance_schedule",
    "DeadlockError",
    "InconsistentGraphError",
    "SdfError",
    "build_pass",
    "is_consistent",
    "repetitions_vector",
    "total_firings_per_iteration",
    "PackedToken",
    "VtsConversion",
    "VtsEdgeInfo",
    "minimum_feedback_delay",
    "vts_convert",
    "hsdf_expand",
    "invocation_name",
    "KpnChannelSpec",
    "KpnNetwork",
    "KpnProcess",
]
