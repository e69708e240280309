"""Simulated hardware substrate: clocking, PEs, links, memories, FPGA
resource model, and the discrete-event kernel."""

from repro.platform.clock import DEFAULT_CLOCK, ClockDomain
from repro.platform.fpga import (
    RESOURCE_FIELDS,
    VIRTEX4_LX60,
    VIRTEX4_SX35,
    FpgaDevice,
    ResourceVector,
    UtilizationReport,
    estimate_datapath,
    estimate_fifo,
)
from repro.platform.interconnect import Interconnect, Link, LinkSpec
from repro.platform.memory import (
    BufferMemory,
    BufferOverflowError,
    BufferUnderflowError,
)
from repro.platform.pe import GPP, PEClass, ProcessingElement
from repro.platform.simulator import (
    LostWakeupError,
    PESequencer,
    SimulationDeadlock,
    Simulator,
    Waitset,
)
from repro.platform.steady_state import (
    AttrMeter,
    MapMeter,
    ObjectMapMeter,
    SteadyStateReport,
    SteadyStateTracker,
)
from repro.platform.trace import TraceEvent, TraceRecorder

__all__ = [
    "AttrMeter",
    "MapMeter",
    "ObjectMapMeter",
    "SteadyStateReport",
    "SteadyStateTracker",
    "DEFAULT_CLOCK",
    "ClockDomain",
    "RESOURCE_FIELDS",
    "VIRTEX4_LX60",
    "VIRTEX4_SX35",
    "FpgaDevice",
    "ResourceVector",
    "UtilizationReport",
    "estimate_datapath",
    "estimate_fifo",
    "Interconnect",
    "Link",
    "LinkSpec",
    "BufferMemory",
    "BufferOverflowError",
    "BufferUnderflowError",
    "GPP",
    "PEClass",
    "ProcessingElement",
    "PESequencer",
    "LostWakeupError",
    "SimulationDeadlock",
    "Simulator",
    "Waitset",
    "TraceEvent",
    "TraceRecorder",
]
