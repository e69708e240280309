#!/usr/bin/env python
"""Gate a benchmark document against its committed baseline.

Usage::

    PYTHONPATH=src python benchmarks/check_bench.py BASELINE.json CURRENT.json

Both documents must pass ``repro.observability.validate_bench`` and
share a ``name``, which selects the checks.  ``FLOORS`` always applies
to the current document; the baseline comparison runs only when both
have the same ``quick`` flag, since quick and full sweeps differ in size.

Exit status 0 = pass, 1 = regression, 2 = unusable input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.observability import BenchValidationError, validate_bench

#: Every gate constant, by document name.  A ``(full, quick)`` pair is
#: indexed by the current document's ``quick`` flag.  ``tolerance`` is
#: the share of a baseline figure that a same-mode run may lose
#: (kernel, campaign) or the growth it may show (collectives, batching:
#: their counts are deterministic, so any growth is a regression).
FLOORS = {
    "kernel": {
        # best fig6/fig7 steady-state auto/off speedup
        "steady_speedup": (5.0, 2.0),
        # auto may cost at most this factor over off where it declines
        # (tracker overhead plus timer noise on sub-100 ms walls)
        "auto_slowdown": 1.15,
        # the sweep's periodic workload must report its period, > this
        "period": 0.0,
        # mean events/s of each synthetic workload, scaled by the host
        # factor sampled over the same runs (perfbench/calibration.py),
        # so that runs in different host speed phases compare
        "tolerance": 0.20,
    },
    "campaign": {
        # service campaign vs one process per run
        "speedup": (3.0, 1.5),
        # analysis-cache hit rate on the repeated-graph campaign
        "hit_rate": 0.9,
        "failed_units": 0,
        # speedup and service runs/s
        "tolerance": 0.30,
    },
    "collectives": {
        # from this PE count up, collectives must send strictly fewer
        # wire messages and wire bytes than the p2p fan-out
        "win_from_pes": 4,
        # p2p/collective wire-message ratio at the largest PE count
        "reduction": 1.25,
        # collective wire messages and bytes per PE count
        "tolerance": 0,
    },
    "batching": {
        # fig6 batch=1 cycles over best batched cycles
        "fig6_speedup": (1.5, 1.2),
        # the fig7 feedback loop admits no blocking factor
        "fig7_batch": 1,
        # every vectorized host kernel vs its reference loop (full
        # mode only: quick runners are too noisy for wall-clock gates)
        "kernel_speedup": 1.0,
        # cycles per (n_units, requested_batch) sweep point
        "tolerance": 0,
    },
}


class Unusable(Exception):
    """A document cannot be gated: unreadable, invalid, or missing a field."""


def get(node, path: str, kind=(int, float)):
    """The value at dotted ``path`` under ``node``, checked to be ``kind``."""
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            raise Unusable(f"missing field {path!r}")
        node = node[key]
    if not isinstance(node, kind) or (isinstance(node, bool) and kind is not bool):
        raise Unusable(f"field {path!r} is ill-typed: {node!r}")
    return node


def rows(document: dict) -> list:
    """``extra.rows``: a non-empty list of sweep points."""
    found = get(document, "extra.rows", list)
    if not found:
        raise Unusable("field 'extra.rows' is empty")
    return found


def check_kernel(floors: dict, current: dict, baseline):
    steady = get(current, "extra.steady_state", dict)
    if not steady:
        raise Unusable("field 'extra.steady_state' is empty")
    period = get(current, "iteration_period_cycles")
    if not period > floors["period"]:
        yield f"[period] iteration_period_cycles {period!r} not > {floors['period']}"
    best = max(get(stats, "speedup") for stats in steady.values())
    if best < floors["steady_speedup"]:
        yield (
            f"[steady_speedup] best steady-state auto/off speedup "
            f"{best:.2f}x fell below the {floors['steady_speedup']}x floor"
        )
    bound = floors["auto_slowdown"]
    for fig, stats in sorted(steady.items()):
        off, auto = get(stats, "off_wall_seconds"), get(stats, "auto_wall_seconds")
        if auto > off * bound:
            yield (
                f"[auto_slowdown] {fig}: auto wall {auto:.3f}s exceeds off "
                f"wall {off:.3f}s by more than {bound}x"
            )
    if baseline is None:
        return
    loss = floors["tolerance"]
    workloads = get(current, "extra.workloads", dict)
    for key, stats in sorted(get(baseline, "extra.workloads", dict).items()):
        if key not in workloads:
            yield f"[tolerance] workload {key!r} missing from the current run"
            continue
        then = get(stats, "mean_events_per_second") * get(stats, "host_factor")
        now = get(workloads[key], "mean_events_per_second") * get(
            workloads[key], "host_factor"
        )
        if now < then * (1.0 - loss):
            yield (
                f"[tolerance] {key}: host-scaled events/s regressed "
                f"{then:.0f} -> {now:.0f} (> {loss:.0%} loss)"
            )


def check_campaign(floors: dict, current: dict, baseline):
    speedup = get(current, "extra.speedup")
    if speedup < floors["speedup"]:
        yield (
            f"[speedup] campaign speedup {speedup:.2f}x vs one process per "
            f"run fell below the {floors['speedup']}x floor"
        )
    hit_rate = get(current, "extra.cache.hit_rate")
    if hit_rate < floors["hit_rate"]:
        yield (
            f"[hit_rate] analysis-cache hit rate {hit_rate:.3f} fell below "
            f"the {floors['hit_rate']} floor"
        )
    failed = get(current, "extra.service.failed_units", int)
    if failed > floors["failed_units"]:
        yield f"[failed_units] {failed} campaign unit(s) failed"
    if baseline is None:
        return
    loss = floors["tolerance"]
    for path in ("extra.speedup", "extra.service.runs_per_sec"):
        then, now = get(baseline, path), get(current, path)
        if now < then * (1.0 - loss):
            yield (
                f"[tolerance] {path} regressed {then:.2f} -> {now:.2f} "
                f"(> {loss:.0%} loss)"
            )


def check_collectives(floors: dict, current: dict, baseline):
    now_rows = {get(row, "n_pes", int): row for row in rows(current)}
    for n, row in sorted(now_rows.items()):
        for metric in ("wire_messages", "wire_bytes"):
            p2p, coll = get(row, f"p2p.{metric}"), get(row, f"collective.{metric}")
            if n >= floors["win_from_pes"] and coll >= p2p:
                yield (
                    f"[win_from_pes] p={n}: collective {metric} {coll} not "
                    f"below p2p {p2p}"
                )
    n = max(now_rows)
    coll = get(now_rows[n], "collective.wire_messages")
    ratio = get(now_rows[n], "p2p.wire_messages") / coll if coll > 0 else 0.0
    if ratio < floors["reduction"]:
        yield (
            f"[reduction] p={n}: message reduction {ratio:.2f}x below the "
            f"{floors['reduction']}x floor"
        )
    if baseline is None:
        return
    then_rows = {get(row, "n_pes", int): row for row in rows(baseline)}
    for n in sorted(now_rows.keys() & then_rows.keys()):
        for metric in ("wire_messages", "wire_bytes"):
            path = f"collective.{metric}"
            then, now = get(then_rows[n], path), get(now_rows[n], path)
            if now > then * (1 + floors["tolerance"]):
                yield f"[tolerance] p={n}: collective {metric} grew {then} -> {now}"


def check_batching(floors: dict, current: dict, baseline):
    best = get(current, "extra.fig6_best_cycles")
    batch1 = get(current, "extra.fig6_batch1_cycles")
    speedup = batch1 / best if best > 0 else 0.0
    if speedup < floors["fig6_speedup"]:
        yield (
            f"[fig6_speedup] fig6 batched speedup {speedup:.2f}x below the "
            f"{floors['fig6_speedup']}x floor (batch=1 {batch1}, best {best})"
        )
    hetero = get(current, "extra.hetero_vs_homo.hetero_cycles")
    homo = get(current, "extra.hetero_vs_homo.homo_cycles")
    if hetero >= homo:
        yield (
            f"[hetero] equal-budget heterogeneous platform {hetero} cycles "
            f"not below homogeneous {homo}"
        )
    batch = get(current, "extra.fig7.effective_batch")
    dispatches = get(current, "extra.fig7.batch_dispatches")
    if batch != floors["fig7_batch"] or dispatches:
        yield (
            f"[fig7_batch] fig7 feedback loop must clamp to batch "
            f"{floors['fig7_batch']}, got effective batch {batch} with "
            f"{dispatches} batched dispatch(es)"
        )
    if not current["quick"]:
        for kernel in get(current, "extra.kernels", list):
            name, kernel_speedup = get(kernel, "name", str), get(kernel, "speedup")
            if kernel_speedup <= floors["kernel_speedup"]:
                yield (
                    f"[kernel_speedup] vectorized kernel {name} not faster "
                    f"than its reference loop ({kernel_speedup:.2f}x)"
                )
    if baseline is None:
        return

    def by_point(document):
        return {
            (get(row, "n_units", int), get(row, "requested_batch", int)): row
            for row in rows(document)
        }

    now_rows, then_rows = by_point(current), by_point(baseline)
    for units, batch in sorted(now_rows.keys() & then_rows.keys()):
        then = get(then_rows[units, batch], "cycles")
        now = get(now_rows[units, batch], "cycles")
        if now > then * (1 + floors["tolerance"]):
            yield (
                f"[tolerance] n_units={units} batch={batch}: cycles grew "
                f"{then} -> {now}"
            )


CHECKS = {
    "kernel": check_kernel,
    "campaign": check_campaign,
    "collectives": check_collectives,
    "batching": check_batching,
}


def load(path: str) -> dict:
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise Unusable(f"cannot read {path}: {exc}")
    if not isinstance(document, dict):
        raise Unusable(f"{path}: not a JSON object")
    try:
        validate_bench(document)
    except BenchValidationError as exc:
        raise Unusable(f"{path}: {exc}")
    return document


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    try:
        baseline, current = load(argv[1]), load(argv[2])
        name = current["name"]
        if baseline["name"] != name:
            raise Unusable(f"baseline is {baseline['name']!r}, current {name!r}")
        if name not in CHECKS:
            raise Unusable(f"no gate for bench document {name!r}")
        quick = current["quick"]
        if baseline["quick"] != quick:
            print("note: quick flags differ; baseline comparison skipped")
            baseline = None
        floors = {
            key: value[quick] if isinstance(value, tuple) else value
            for key, value in FLOORS[name].items()
        }
        failures = list(CHECKS[name](floors, current, baseline))
    except Unusable as exc:
        print(f"error: {exc}")
        return 2
    if failures:
        print(f"{name} benchmark regression:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"{name} benchmark OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
