"""Campaign driver: generate seeds, run oracles, shrink failures, report.

A campaign is the unit the ``repro conform`` CLI subcommand and the CI
``conformance-smoke`` job execute: a contiguous range of seeds, each
turned into a case by the generator, run through the oracle stack, with
any violation shrunk to a minimal spec and rendered as replay JSON plus
a generated pytest repro.

Since PR 6 the runner is a thin client of :mod:`repro.service`: every
seed becomes one ``conform.seed`` operation unit executed through the
campaign engine — optionally across a multiprocess shard pool
(``workers > 1``) with a shared content-addressed analysis cache.  An
operation-level crash is isolated per seed and surfaces as a
``service``-oracle violation instead of killing the campaign.

The report (schema ``repro.conformance/1``) embeds a standard
observability bench document (schema ``repro.bench/1``), so campaign
wall-time and aggregate simulated cycles flow into the same BENCH-style
artefact stream the perf jobs gate on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.conformance.generator import GraphShape
from repro.conformance.oracles import DEFAULT_MAX_CYCLES
from repro.observability.bench import bench_document
from repro.service.campaign import CampaignPlan, run_service_campaign

__all__ = ["CampaignConfig", "run_campaign", "REPORT_SCHEMA"]

#: schema identifier of campaign reports
REPORT_SCHEMA = "repro.conformance/1"


@dataclass
class CampaignConfig:
    """Parameters of one conformance campaign."""

    seeds: int = 50
    seed_start: int = 0
    iterations: int = 4
    quick: bool = False
    shrink: bool = True
    shape: GraphShape = field(default_factory=GraphShape)
    max_cycles: int = DEFAULT_MAX_CYCLES

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


def _crash_case(seed: int, error: str) -> Dict[str, object]:
    """Render an operation-level crash as a failing case entry."""
    return {
        "seed": seed,
        "ok": False,
        "violations": [
            {"oracle": "service", "run": "shard", "detail": error}
        ],
        "runs": {},
    }


def run_campaign(
    config: CampaignConfig,
    workers: int = 1,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    runs_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Run the campaign and return the ``repro.conformance/1`` report.

    ``workers > 1`` shards the seeds across processes; the report
    contents (modulo wall time and cache scheduling statistics) do not
    depend on the worker count.
    """
    shape_json = dataclasses.asdict(config.shape)
    seeds = list(range(config.seed_start, config.seed_start + config.seeds))
    plan = CampaignPlan(
        operation="conform.seed",
        units=[
            {
                "seed": seed,
                "iterations": config.iterations,
                "quick": config.quick,
                "shrink": config.shrink,
                "max_cycles": config.max_cycles,
                "shape": shape_json,
            }
            for seed in seeds
        ],
        workers=workers,
        use_cache=use_cache,
        cache_dir=cache_dir,
        runs_dir=runs_dir,
        quick=config.quick,
        name="conformance",
    )
    service_report = run_service_campaign(plan)

    failures: List[Dict[str, object]] = []
    cases: List[Dict[str, object]] = []
    total_cycles = 0
    by_oracle: Dict[str, int] = {}
    crash_errors = {
        f["index"]: f["error"] for f in service_report["failures"]
    }
    for index, (seed, result) in enumerate(
        zip(seeds, service_report["results"])
    ):
        if result is None:
            # crashed shard / raising operation: isolated to this seed
            case = _crash_case(
                seed, crash_errors.get(index, "operation failed")
            )
        else:
            case = result["payload"]["case"]
        total_cycles += sum(
            int(run.get("cycles", 0)) for run in case["runs"].values()
        )
        cases.append(case)
        if case["ok"]:
            continue
        for violation in case["violations"]:
            by_oracle[violation["oracle"]] = (
                by_oracle.get(violation["oracle"], 0) + 1
            )
        entry: Dict[str, object] = {
            "seed": seed,
            "violations": case["violations"],
        }
        if result is not None and "shrunk" in result["payload"]:
            entry["shrunk"] = result["payload"]["shrunk"]
        failures.append(entry)

    bench = bench_document(
        name="conformance_campaign",
        makespan_cycles=total_cycles,
        iteration_period_cycles=0.0,
        wall_seconds=service_report["bench"]["wall_seconds"],
        quick=config.quick,
        extra={
            "seeds": config.seeds,
            "seed_start": config.seed_start,
            "failing_seeds": len(failures),
            "violations_by_oracle": by_oracle,
        },
    )
    return {
        "schema": REPORT_SCHEMA,
        "seeds": config.seeds,
        "seed_start": config.seed_start,
        "iterations": config.iterations,
        "quick": config.quick,
        "shape": {
            key: getattr(config.shape, key)
            for key in (
                "min_actors",
                "max_actors",
                "max_repetition",
                "max_rate_factor",
                "dynamic_prob",
                "feedback_prob",
                "max_pes",
            )
        },
        "checked": len(cases),
        "failing_seeds": [f["seed"] for f in failures],
        "failures": failures,
        "cases": cases,
        "workers": workers,
        "cache": service_report["cache"],
        "bench": bench,
    }
