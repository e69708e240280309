#!/usr/bin/env python
"""Gate the kernel benchmark against its committed baseline.

Usage::

    python benchmarks/check_kernel_regression.py BASELINE.json CURRENT.json

Gates, strongest applicable wins:

* **steady-state floor** (always, on the current document) — the best
  steady-state auto-vs-off speedup across the fig6/fig7 sweep must
  stay >= 5x in full mode (2x quick), auto must never be meaningfully
  slower than off on any application, and the document must report a
  real (> 0) iteration period for its periodic workload.
* **per-workload comparison** (same-mode runs only) — when baseline and
  current were produced with the same ``quick`` flag, the events/sec
  of no synthetic workload may regress by more than the tolerance.
  Quick-vs-full pairs skip this (the workloads differ in size, so the
  numbers are incomparable) and rely on the floors.

Exit status 0 = pass, 1 = regression, 2 = unusable input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: fraction of the baseline a metric may lose before the gate fails
TOLERANCE = 0.20

#: best fig6/fig7 steady-state auto-vs-off speedup floor, by mode
STEADY_FLOOR_FULL = 5.0
STEADY_FLOOR_QUICK = 2.0

#: auto may cost at most this factor over off on a workload where it
#: declines (tracker/eligibility overhead + timer noise on sub-100ms
#: walls; best-of-REPEATS keeps real runs well under it)
STEADY_SLOWDOWN_BOUND = 1.15


def check_steady_state(current: dict) -> list:
    """Current-document steady-state gates (no baseline needed)."""
    failures = []
    steady = current["extra"].get("steady_state")
    if not steady:
        failures.append(
            "extra.steady_state sweep missing from the current document"
        )
        return failures
    period = current.get("iteration_period_cycles", 0.0)
    if not period > 0:
        failures.append(
            f"iteration_period_cycles is {period!r}; the kernel bench "
            f"declares a periodic workload and must report fig6's "
            f"detected period"
        )
    floor = STEADY_FLOOR_QUICK if current.get("quick") else STEADY_FLOOR_FULL
    best = max(stats["speedup"] for stats in steady.values())
    if best < floor:
        failures.append(
            f"best steady-state auto/off speedup {best:.2f}x fell below "
            f"the {floor:.1f}x floor"
        )
    for fig, stats in sorted(steady.items()):
        off = stats["off_wall_seconds"]
        auto = stats["auto_wall_seconds"]
        if auto > off * STEADY_SLOWDOWN_BOUND:
            failures.append(
                f"{fig}: steady-state auto wall {auto:.3f}s exceeds "
                f"off wall {off:.3f}s by more than "
                f"{STEADY_SLOWDOWN_BOUND:.2f}x (auto must cost ~nothing "
                f"when it declines)"
            )
    return failures


def _load(path: str) -> dict:
    document = json.loads(Path(path).read_text())
    if document.get("schema") != "repro.bench/1" or document.get("name") != "kernel":
        raise ValueError(f"{path}: not a kernel bench document")
    return document


def check(baseline: dict, current: dict) -> list:
    """Return a list of human-readable failure strings (empty = pass)."""
    failures = check_steady_state(current)

    if baseline.get("quick") == current.get("quick"):
        base_workloads = baseline["extra"]["workloads"]
        cur_workloads = current["extra"]["workloads"]
        for key, base_stats in sorted(base_workloads.items()):
            cur_stats = cur_workloads.get(key)
            if cur_stats is None:
                failures.append(f"workload {key!r} missing from current run")
                continue
            base_eps = base_stats["events_per_second"]
            cur_eps = cur_stats["events_per_second"]
            if cur_eps < base_eps * (1.0 - TOLERANCE):
                failures.append(
                    f"{key}: events/sec regressed {base_eps:.0f} -> "
                    f"{cur_eps:.0f} (> {TOLERANCE:.0%} loss)"
                )
    else:
        print(
            "note: baseline/current quick flags differ; per-workload "
            "comparison skipped (steady-state floors still apply)"
        )
    return failures


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    try:
        baseline = _load(argv[1])
        current = _load(argv[2])
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}")
        return 2
    failures = check(baseline, current)
    if failures:
        print("kernel benchmark regression:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    steady = current["extra"].get("steady_state") or {}
    best_steady = max((s["speedup"] for s in steady.values()), default=0.0)
    print(
        "kernel benchmark OK: best steady-state auto/off speedup "
        f"{best_steady:.2f}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
