#!/usr/bin/env python
"""Gate the campaign benchmark against its committed baseline.

Usage::

    python benchmarks/check_campaign_regression.py CURRENT.json [BASELINE.json]

Three absolute gates always apply (they are machine-independent — both
sides of each ratio run on the same box in the same process):

* **throughput floor** — the service campaign must beat one process per
  run by >= 3x in full mode (the ISSUE's acceptance bar) or >= 1.5x in
  quick mode (smaller campaigns amortise less startup);
* **cache floor** — the repeated-graph campaign's analysis-cache hit
  rate must stay >= 0.9;
* **no failed units** — shard-level failure isolation must not be
  exercised on the healthy workload.

When a baseline produced with the same ``quick`` flag is given, the
speedup and service runs/sec are additionally compared against it with
a tolerance; quick-vs-full pairs skip the comparison (campaign sizes
differ, so the numbers are incomparable) and rely on the floors.

Exit status 0 = pass, 1 = regression, 2 = unusable input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: fraction of the baseline a metric may lose before the gate fails
TOLERANCE = 0.30

#: service-vs-serial throughput floors (the full-mode one is the
#: acceptance criterion: >= 3x on the 200-seed repeated-graph campaign)
SPEEDUP_FLOOR_FULL = 3.0
SPEEDUP_FLOOR_QUICK = 1.5

#: analysis-cache hit-rate floor on the repeated-graph workload
HIT_RATE_FLOOR = 0.9


def _load(path: str) -> dict:
    document = json.loads(Path(path).read_text())
    if (
        document.get("schema") != "repro.bench/1"
        or document.get("name") != "campaign"
    ):
        raise ValueError(f"{path}: not a campaign bench document")
    return document


def check(current: dict, baseline: dict = None) -> list:
    """Return a list of human-readable failure strings (empty = pass)."""
    failures = []
    extra = current["extra"]
    speedup = extra["speedup"]
    hit_rate = extra["cache"]["hit_rate"]
    failed = extra["service"]["failed_units"]

    floor = SPEEDUP_FLOOR_QUICK if current.get("quick") else SPEEDUP_FLOOR_FULL
    if speedup < floor:
        failures.append(
            f"campaign speedup {speedup:.2f}x vs one-process-per-run fell "
            f"below the {floor:.1f}x floor"
        )
    if hit_rate < HIT_RATE_FLOOR:
        failures.append(
            f"analysis-cache hit rate {hit_rate:.3f} fell below the "
            f"{HIT_RATE_FLOOR:.2f} floor"
        )
    if failed:
        failures.append(f"{failed} campaign unit(s) failed")

    if baseline is None:
        pass
    elif baseline.get("quick") == current.get("quick"):
        base_speedup = baseline["extra"]["speedup"]
        if speedup < base_speedup * (1.0 - TOLERANCE):
            failures.append(
                f"speedup regressed {base_speedup:.2f}x -> {speedup:.2f}x "
                f"(> {TOLERANCE:.0%} loss)"
            )
        base_rps = baseline["extra"]["service"]["runs_per_sec"]
        cur_rps = extra["service"]["runs_per_sec"]
        if cur_rps < base_rps * (1.0 - TOLERANCE):
            failures.append(
                f"service throughput regressed {base_rps:.2f} -> "
                f"{cur_rps:.2f} runs/s (> {TOLERANCE:.0%} loss)"
            )
    else:
        print(
            "note: baseline/current quick flags differ; baseline "
            "comparison skipped (absolute floors still apply)"
        )
    return failures


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print(__doc__)
        return 2
    try:
        current = _load(argv[1])
        baseline = _load(argv[2]) if len(argv) == 3 else None
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}")
        return 2
    failures = check(current, baseline)
    if failures:
        print("campaign benchmark regression:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    extra = current["extra"]
    print(
        f"campaign benchmark OK: {extra['speedup']:.2f}x vs serial, "
        f"cache hit rate {extra['cache']['hit_rate']:.3f}, "
        f"{extra['runs']} runs"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
