"""The repository's benchmark: one workload, measured end to end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload fig7_pf --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload fig7_pf --seed 1 --seconds 50 --trace 1
    python3 perfbench/run.py --all --seed 1 --seconds 50

``--trace 0`` measures the end-to-end metrics with no tracing
installed.  ``--trace 1`` runs an untraced segment for half the time,
then replays the same passes under the span tracer and reports the
per-layer metrics, the tracing overhead and the determinism self-test.
``--all`` runs every workload in this one process, untraced, and prints
every end-to-end metric (set-up time is then measured per workload in
fresh processes as usual).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and the
full result document are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: fresh-process set-up samples per measured run (median reported)
SETUP_SAMPLES = 5
#: a seed kept out of all tuning, for confirming claims (see README.md)
HELD_OUT_SEED = 2008

END_TO_END_UNITS = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "sim_wire_bytes": "bytes",
}


def _import_program():
    """Put the checkout's ``src`` first on the path and import the layers."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import repro
    import workloads

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"repro was imported from {source}, not this checkout")
    return workloads


def _setup_seconds(workload: str, seed: int) -> list:
    """Wall time of fresh interpreters that import, generate the inputs
    and run the warm-up unit."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=str(ROOT),
            check=True,
        )
        samples.append(time.perf_counter() - start)
    return samples


def _set_up(workloads, name: str, seed: int):
    """Build the workload's inputs and finish its lazy set-up."""
    workload = workloads.WORKLOADS[name](seed)
    workload.warm_up()
    return workload


def _segment(label, workload, tap, passes, tracer=None, until=None):
    """Run passes ``0..passes-1``, or, with ``until``, at least
    ``passes`` and on until ``until`` seconds have elapsed."""
    results = []
    clock = calibration.HostClock()
    workload.clock = clock
    started = time.perf_counter()
    index = 0
    while True:
        if index >= passes and (
            until is None or time.perf_counter() - started >= until
        ):
            break
        before = tracer.snapshot() if tracer is not None else None
        result = workload.run_pass(index, tap, tracer)
        after = tracer.snapshot() if tracer is not None else None
        results.append((result, before, after))
        index += 1
    clock.sample(force=True)
    workload.clock = None
    units = sum(r.units for r, _, _ in results)
    wall = sum(r.wall for r, _, _ in results)
    factor = clock.factor()
    return {
        "label": label,
        "passes": len(results),
        "units": units,
        "failed": sum(r.failed for r, _, _ in results),
        "wall_s": wall,
        "wall_units_per_s": units / wall if wall > 0 else 0.0,
        "host_factor": factor,
        "units_per_s": units / wall * factor if wall > 0 else 0.0,
        "host_samples_s": clock.samples,
        "sim_firings": sum(r.sim_firings for r, _, _ in results),
        "sim_per_pass": [[r.sim_cycles, r.sim_wire_bytes] for r, _, _ in results],
        "errors": [e for r, _, _ in results for e in r.errors][:10],
        "_results": results,
    }


def _public(segment):
    return {k: v for k, v in segment.items() if not k.startswith("_")}


def measure(workloads, name: str, seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics."""
    setup = _setup_seconds(name, seed)
    workload = _set_up(workloads, name, seed)
    tap = workloads.SimTap()
    tap.install()
    try:
        segment = _segment(
            "untraced", workload, tap, workload.sim_passes, until=seconds
        )
    finally:
        tap.uninstall()
    counted = segment["sim_per_pass"][: workload.sim_passes]
    metrics = {
        "setup_s": statistics.median(setup) / segment["host_factor"],
        "units_per_s": segment["units_per_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_cycles": sum(cycles for cycles, _ in counted),
        "sim_wire_bytes": sum(wire for _, wire in counted),
    }
    problems = list(segment["errors"])
    problems += _repeat_problems(workload, segment)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": 0,
        "setup_samples_s": setup,
        "segments": [_public(segment)],
        "attempted": segment["units"],
        "failed": segment["failed"],
        "error_rate": segment["failed"] / segment["units"],
        "correct": not problems,
        "problems": problems,
        "metrics": metrics,
    }


def _repeat_problems(workload, segment) -> list:
    """The figure sweeps repeat identical passes: their sims must agree."""
    if not workload.identical_passes:
        return []
    sims = segment["sim_per_pass"]
    return [
        f"pass {i} simulated {sim}, pass 0 {sims[0]}"
        for i, sim in enumerate(sims) if sim != sims[0]
    ]


def trace(workloads, name: str, seed: int, seconds: float) -> dict:
    """Traced run: untraced segment, the same passes traced, a repeat."""
    import layers
    from tracer import Tracer

    workload = _set_up(workloads, name, seed)
    tap = workloads.SimTap()
    tap.install()
    tracer = Tracer()
    try:
        plain = _segment("untraced", workload, tap, 1, until=seconds / 2)
        tracer.install()
        try:
            traced = _segment("traced", workload, tap, plain["passes"], tracer)
            repeat = _segment("repeat", workload, tap, 1, tracer)
        finally:
            tracer.uninstall()
    finally:
        tap.uninstall()
    problems = list(plain["errors"]) + list(traced["errors"])
    if traced["sim_per_pass"] != plain["sim_per_pass"]:
        problems.append(
            f"traced passes simulated {traced['sim_per_pass']}, untraced "
            f"{plain['sim_per_pass']}"
        )
    summary = layers.summarize(traced, repeat, plain)
    problems += summary.pop("problems")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}.json")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": 1,
        "segments": [_public(plain), _public(traced)],
        "attempted": plain["units"] + traced["units"],
        "failed": plain["failed"] + traced["failed"],
        "correct": not problems,
        "problems": problems,
        "traced": {
            "spans": tracer.recorded,
            "unit_coverage": summary["unit_coverage"],
            "events": summary["events"],
            "kernel_wall_s": summary["kernel_wall_s"],
        },
        "metrics": summary["metrics"],
        "units": summary["units"],
        "notes": summary["notes"],
    }


def _print_report(doc: dict) -> None:
    print(f"== {doc['workload']} seed={doc['seed']} trace={doc['trace']}")
    for segment in doc["segments"]:
        print(
            f"   {segment['label']}: {segment['passes']} pass(es), "
            f"{segment['units']} units in {segment['wall_s']:.3f} s "
            f"({segment['wall_units_per_s']:.4g}/s raw, host factor "
            f"{segment['host_factor']:.3f}), {segment['failed']} failed"
        )
    units = doc.get("units") or END_TO_END_UNITS
    for key, value in doc["metrics"].items():
        print(f"   {key:<40} {value:>16.6g} {units[key]}")
    if doc["trace"] == 0:
        print(f"   {'error_rate':<40} {doc['error_rate']:>16.6g} fraction")
    for note in doc.get("notes", ()):
        print(f"   note: {note}")
    for problem in doc["problems"]:
        print(f"   PROBLEM: {problem}")


def _result_line(docs: list) -> str:
    """The last output line; with several workloads (``--all``) each
    metric name is prefixed by its workload's."""
    metrics = {}
    for doc in docs:
        units = doc.get("units") or END_TO_END_UNITS
        prefix = f"{doc['workload']}." if len(docs) > 1 else ""
        for key, value in doc["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    return json.dumps(
        {
            "correct": all(doc["correct"] for doc in docs),
            "attempted": sum(doc["attempted"] for doc in docs),
            "failed": sum(doc["failed"] for doc in docs),
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced in this process")
    parser.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        workloads = _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from checks import ResultError, check_result

    names = list(workloads.WORKLOADS) if args.all else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)} or --all")
    if args.setup_only:
        _set_up(workloads, args.workload, args.seed)
        return 0
    if args.all and args.trace:
        parser.error("--all measures end-to-end metrics only (--trace 0)")

    docs = []
    for name in names:
        run = trace if args.trace else measure
        doc = run(workloads, name, args.seed, args.seconds)
        try:
            check_result(doc)
        except ResultError as exc:
            print(f"error: inconsistent result for {name}: {exc}",
                  file=sys.stderr)
            return 1
        OUT.mkdir(exist_ok=True)
        saved = dict(doc)
        if "traced" in saved:
            # the spans themselves go to spans-<workload>.json
            saved["traced"] = {k: v for k, v in doc["traced"].items()
                               if k != "spans"}
        with open(OUT / f"result-{name}-trace{args.trace}.json", "w") as handle:
            json.dump(saved, handle, indent=1)
        _print_report(doc)
        docs.append(doc)
    print(_result_line(docs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
