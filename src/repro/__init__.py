"""repro — reproduction of the Signal Passing Interface (SPI) framework.

"An Optimized Message Passing Framework for Parallel Implementation of
Signal Processing Applications" (DATE 2008): SPI integrates coarse-grain
dataflow modelling with MPI-style message passing, adds Variable Token
Size (VTS) modelling for bounded-dynamic data rates, resynchronization
for distributed-memory systems, and an HDL communication-actor library.

The top level re-exports the public API; see DESIGN.md for the system
inventory and README.md for a quickstart.
"""

from repro.dataflow import (
    Actor,
    DataflowGraph,
    DynamicRate,
    Edge,
    GraphError,
    Port,
    build_pass,
    is_consistent,
    repetitions_vector,
    sdf_buffer_bounds,
    vts_convert,
)
from repro.dataflow.vts import PackedToken, VtsConversion
from repro.mapping import (
    McmResult,
    Partition,
    build_ipc_graph,
    build_selftimed_schedule,
    derive_sync_graph,
    maximum_cycle_mean,
    maximum_cycle_mean_result,
    remove_redundant_synchronizations,
    resynchronize,
    simulate_selftimed,
)
from repro.mpi import MpiConfig, MpiSystem
from repro.platform import (
    VIRTEX4_SX35,
    ClockDomain,
    FpgaDevice,
    LinkSpec,
    ResourceVector,
    UtilizationReport,
)
from repro.spi import Protocol, RunResult, SpiConfig, SpiSystem

__version__ = "1.0.0"

__all__ = [
    "Actor",
    "DataflowGraph",
    "DynamicRate",
    "Edge",
    "GraphError",
    "Port",
    "build_pass",
    "is_consistent",
    "repetitions_vector",
    "sdf_buffer_bounds",
    "vts_convert",
    "PackedToken",
    "VtsConversion",
    "McmResult",
    "Partition",
    "build_ipc_graph",
    "build_selftimed_schedule",
    "derive_sync_graph",
    "maximum_cycle_mean",
    "maximum_cycle_mean_result",
    "remove_redundant_synchronizations",
    "resynchronize",
    "simulate_selftimed",
    "MpiConfig",
    "MpiSystem",
    "VIRTEX4_SX35",
    "ClockDomain",
    "FpgaDevice",
    "LinkSpec",
    "ResourceVector",
    "UtilizationReport",
    "Protocol",
    "RunResult",
    "SpiConfig",
    "SpiSystem",
    "__version__",
]
