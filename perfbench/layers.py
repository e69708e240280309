"""Per-layer metrics from a traced segment.

Times are self times in seconds per pass, averaged over the traced
passes.  Counts are those of pass 0, which every run executes, so they
repeat exactly for a seed; the repeat of pass 0 that ends a traced run
checks that they do.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (metric, span name, "self" or "incl") — seconds per pass
TIMES: Tuple[Tuple[str, str, str], ...] = (
    ("apps.fire_s", "apps.fire", "self"),
    ("apps.cycle_model_s", "apps.cycle_model", "self"),
    ("platform.kernel_s", "platform.kernel", "self"),
    ("spi.compile_s", "spi.compile", "self"),
    ("spi.run_s", "spi.run", "self"),
    ("dataflow.vts_convert_s", "dataflow.vts_convert", "self"),
    ("dataflow.repetitions_s", "dataflow.repetitions", "self"),
    ("dataflow.hsdf_s", "dataflow.hsdf", "self"),
    ("mapping.schedule_s", "mapping.schedule", "self"),
    ("mapping.sync_graph_s", "mapping.sync_graph", "self"),
    ("mapping.min_delay_s", "mapping.min_delay", "self"),
    ("mapping.resync_s", "mapping.resync", "self"),
    ("mapping.mcm_s", "mapping.mcm", "self"),
    ("service.unit_s", "service.unit", "incl"),
    ("service.cache.s", "service.cache", "self"),
    ("conformance.generate_s", "conformance.generate", "self"),
    ("conformance.build_case_s", "conformance.build_case", "self"),
    ("conformance.reference_s", "conformance.reference", "self"),
    ("conformance.oracles_s", "conformance.oracles", "self"),
    ("conformance.shrink_s", "conformance.shrink", "self"),
    ("mpi.s", "mpi", "self"),
    ("observability.metrics_s", "observability.metrics", "self"),
    ("observability.export_s", "observability.export", "self"),
    ("analysis.summary_s", "analysis.summary", "self"),
)

#: (metric, tracer counter or span-call count) — pass 0
COUNTS: Tuple[Tuple[str, str], ...] = (
    ("apps.firings", "calls:apps.fire"),
    ("platform.events", "platform.events"),
    ("platform.parks", "platform.parks"),
    ("platform.wakeups", "platform.wakeups"),
    ("platform.spurious_wakeups", "platform.spurious_wakeups"),
    ("spi.compiles", "calls:spi.compile"),
    ("spi.data_messages", "spi.data_messages"),
    ("spi.ack_messages", "spi.ack_messages"),
    ("spi.resync_messages", "spi.resync_messages"),
    ("dataflow.hsdf_tasks", "dataflow.hsdf_tasks"),
    ("mapping.sync_edges", "mapping.sync_edges"),
    ("mapping.acks_removed", "mapping.acks_removed"),
    ("mapping.resync_added", "mapping.resync_added"),
    ("mpi.runs", "mpi.runs"),
)

CACHE_KINDS = ("repetitions", "channel_plans", "resync", "mcm", "period")

UNITS: Dict[str, str] = {
    **{metric: "s" for metric, _, _ in TIMES},
    **{metric: "count" for metric, _ in COUNTS},
    "platform.ns_per_event": "ns",
    "spi.iterations_per_s": "1/s",
    "service.overhead_s": "s",
    "service.cache.hits": "count",
    "service.cache.misses": "count",
    **{f"service.cache.{kind}.hit_rate": "fraction" for kind in CACHE_KINDS},
    "service.failed_units": "count",
    "conformance.violations": "count",
    "trace.units_per_s": "1/s",
    "trace.untraced_units_per_s": "1/s",
    "trace.overhead": "fraction",
    "trace.unit_coverage": "fraction",
}


def _delta(before: Dict, after: Dict, table: str, key: str) -> int:
    return after[table].get(key, 0) - before[table].get(key, 0)


def _count(before: Dict, after: Dict, source: str) -> int:
    if source.startswith("calls:"):
        return _delta(before, after, "calls", source[len("calls:"):])
    return _delta(before, after, "counts", source)


def _pass_counts(entry) -> Dict[str, int]:
    result, before, after = entry
    counts = {metric: _count(before, after, source) for metric, source in COUNTS}
    counts["service.cache.hits"] = result.cache_hits
    counts["service.cache.misses"] = result.cache_misses
    counts["service.failed_units"] = result.failed_units
    counts["conformance.violations"] = result.violations
    return counts


def summarize(traced: Dict, repeat: Dict, plain: Dict) -> Dict:
    """Per-layer metrics, notes on idle layers and self-test problems."""
    entries = traced["_results"]
    passes = len(entries)
    first_before, last_after = entries[0][1], entries[-1][2]

    def total(table: str, key: str) -> int:
        return _delta(first_before, last_after, table, key)

    metrics: Dict[str, float] = {}
    notes: List[str] = []
    for metric, span, kind in TIMES:
        table = "self_ns" if kind == "self" else "incl_ns"
        metrics[metric] = total(table, span) / passes / 1e9
        if not total("calls", span):
            notes.append(f"{metric} is 0: this workload never calls {span}")

    first = _pass_counts(entries[0])
    metrics.update(first)
    first_result = entries[0][0]
    for kind in CACHE_KINDS:
        counts = first_result.cache_by_kind.get(kind, {"hits": 0, "misses": 0})
        lookups = counts["hits"] + counts["misses"]
        metrics[f"service.cache.{kind}.hit_rate"] = (
            counts["hits"] / lookups if lookups else 0.0
        )
        if not lookups:
            notes.append(f"service.cache.{kind}.hit_rate is 0: no lookups")

    events = total("counts", "platform.events")
    kernel_self = total("self_ns", "platform.kernel")
    metrics["platform.ns_per_event"] = kernel_self / events if events else 0.0
    run_incl = total("incl_ns", "spi.run")
    iterations = total("counts", "spi.iterations")
    metrics["spi.iterations_per_s"] = (
        iterations / (run_incl / 1e9) if run_incl else 0.0
    )
    campaign = total("incl_ns", "service.campaign")
    metrics["service.overhead_s"] = (
        (campaign - total("incl_ns", "service.unit")) / passes / 1e9
        if campaign else 0.0
    )

    unit_wall = total("incl_ns", "unit") + total("incl_ns", "service.unit")
    coverage = unit_wall / 1e9 / traced["wall_s"]
    metrics["trace.units_per_s"] = traced["units_per_s"]
    metrics["trace.untraced_units_per_s"] = plain["units_per_s"]
    metrics["trace.overhead"] = plain["units_per_s"] / traced["units_per_s"] - 1
    metrics["trace.unit_coverage"] = coverage

    problems: List[str] = []
    again = _pass_counts(repeat["_results"][0])
    for key, value in first.items():
        if again[key] != value:
            problems.append(
                f"{key} not deterministic: pass 0 gave {value}, its "
                f"repeat {again[key]}"
            )
    if repeat["sim_per_pass"][0] != traced["sim_per_pass"][0]:
        problems.append("the repeat of pass 0 simulated differently")
    problems += repeat["errors"]
    return {
        "metrics": metrics,
        "units": UNITS,
        "notes": notes,
        "problems": problems,
        "unit_coverage": coverage,
        "events": events,
        "kernel_wall_s": total("incl_ns", "platform.kernel") / 1e9,
    }
