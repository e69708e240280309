"""Conformance subsystem: fuzzing, differential oracles, shrinking.

The machine-checked statement of the paper's equivalence claim: SPI's
compile-time analysis (repetitions vector, VTS bounds, resynchronized
self-timed schedules) and its simulated runtime stay semantically
identical to an MPI-style baseline and to a single-PE reference
execution, over arbitrarily many generated graphs.

Entry points:

* :func:`generate_spec` / :class:`GraphShape` — seeded graph generation
* :func:`build_case` / :class:`GraphSpec` — spec materialisation
* :func:`run_oracle_stack` — the differential oracle battery
* :func:`shrink` — counterexample minimisation
* :func:`run_campaign` — campaign driver behind the ``repro conform``
  CLI subcommand
"""

from repro.conformance.generator import GraphShape, generate_spec
from repro.conformance.oracles import (
    DEFAULT_MAX_CYCLES,
    OracleReport,
    Violation,
    default_occupancy_bound,
    run_oracle_stack,
)
from repro.conformance.reference import ReferenceError, run_reference
from repro.conformance.runner import (
    REPORT_SCHEMA,
    CampaignConfig,
    run_campaign,
)
from repro.conformance.shrinker import (
    ShrinkResult,
    oracle_failure_predicate,
    render_pytest_repro,
    shrink,
)
from repro.conformance.spec import (
    CONFORMANCE_ACCELERATOR,
    ActorSpec,
    ConformanceCase,
    EdgeSpec,
    GraphSpec,
    SpecError,
    TokenTap,
    build_case,
)

__all__ = [
    "ActorSpec",
    "CONFORMANCE_ACCELERATOR",
    "CampaignConfig",
    "ConformanceCase",
    "DEFAULT_MAX_CYCLES",
    "EdgeSpec",
    "GraphShape",
    "GraphSpec",
    "OracleReport",
    "REPORT_SCHEMA",
    "ReferenceError",
    "ShrinkResult",
    "SpecError",
    "TokenTap",
    "Violation",
    "build_case",
    "default_occupancy_bound",
    "generate_spec",
    "oracle_failure_predicate",
    "render_pytest_repro",
    "run_campaign",
    "run_oracle_stack",
    "run_reference",
    "shrink",
]
