"""Campaign throughput: the sharded service vs one process per run.

The workload is the ISSUE's *repeated-graph campaign*: N ``conform.seed``
units cycling through D distinct seeds — the shape every parameter
sweep and soak campaign has (many runs, few distinct graphs).  Two ways
to execute it are measured:

* **serial baseline** — one fresh ``python -m repro.cli conform
  --replay SEED`` process per run, the pre-service workflow: every run
  pays interpreter + import startup and recomputes every compile-time
  analysis from scratch (a sample of runs is measured and the rate
  extrapolated);
* **service campaign** — one ``repro.service`` campaign over the same
  unit list: shard pool (work stealing), run-lifecycle records, and the
  content-addressed analysis cache shared across the repeated graphs.

``BENCH_campaign.json`` records both rates, their ratio, and the cache
hit/miss counters; ``check_bench.py`` gates CI on the
throughput floor and the >= 0.9 hit rate.
"""

import os
import subprocess
import sys
import time

import pytest

from conftest import QUICK, emit, save_bench_json

#: campaign size / distinct-graph pool (full mode is the ISSUE's
#: 200-seed repeated-graph campaign)
RUNS = 50 if QUICK else 200
DISTINCT = 4 if QUICK else 10
SEED_START = 0
#: one-process-per-run sample size (each costs a full interpreter
#: startup, so the baseline is extrapolated from a sample)
SERIAL_SAMPLE = 4 if QUICK else 8
#: shard pool size.  The default of 1 keeps the gated cache hit-rate
#: measurement deterministic (each shard process holds its own memory
#: cache, so fan-out multiplies the cold misses); the multiprocess path
#: is exercised by tests/service and the conformance-smoke CI job.
WORKERS = max(1, int(os.environ.get("REPRO_CAMPAIGN_WORKERS", "1")))

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results", "campaign_runs"
)


def _campaign_seeds():
    """The repeated-graph unit list: RUNS units over DISTINCT seeds."""
    return [SEED_START + index % DISTINCT for index in range(RUNS)]


def _serial_one_process_per_run() -> dict:
    """Time a sample of runs the pre-service way: one CLI process each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    seeds = _campaign_seeds()[:SERIAL_SAMPLE]
    started = time.perf_counter()
    for seed in seeds:
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "conform",
            "--replay",
            str(seed),
            "--no-shrink",
        ]
        if QUICK:
            command.append("--quick")
        completed = subprocess.run(
            command,
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        assert completed.returncode == 0, completed.stderr.decode()
    wall = time.perf_counter() - started
    return {
        "runs_measured": len(seeds),
        "wall_seconds": wall,
        "runs_per_sec": len(seeds) / wall,
    }


def _service_campaign() -> dict:
    """Run the full unit list through the service campaign engine."""
    from repro.service import CampaignPlan, run_service_campaign

    plan = CampaignPlan(
        operation="conform.seed",
        units=[
            {"seed": seed, "quick": QUICK, "shrink": False}
            for seed in _campaign_seeds()
        ],
        workers=WORKERS,
        runs_dir=RUNS_DIR,
        quick=QUICK,
        name="bench",
    )
    report = run_service_campaign(plan)
    wall = report["bench"]["wall_seconds"]
    failing_cases = sum(
        1
        for result in report["results"]
        if result is not None and not result["payload"]["case"]["ok"]
    )
    return {
        "report": report,
        "wall_seconds": wall,
        "runs_per_sec": len(report["results"]) / wall,
        "failed_units": len(report["failures"]),
        "failing_cases": failing_cases,
    }


@pytest.fixture(scope="module")
def campaign():
    serial = _serial_one_process_per_run()
    service = _service_campaign()
    return {
        "serial": serial,
        "service": service,
        "speedup": service["runs_per_sec"] / serial["runs_per_sec"],
    }


def test_campaign_report(campaign):
    cache = campaign["service"]["report"]["cache"]
    emit(
        "Campaign throughput (service vs one process per run)",
        "\n".join(
            [
                f"workload: {RUNS} conform.seed runs over {DISTINCT} "
                f"distinct graphs, {WORKERS} worker(s)",
                f"serial:  {campaign['serial']['runs_per_sec']:.2f} runs/s "
                f"({campaign['serial']['runs_measured']} runs sampled in "
                f"{campaign['serial']['wall_seconds']:.2f} s)",
                f"service: {campaign['service']['runs_per_sec']:.2f} runs/s "
                f"({RUNS} runs in "
                f"{campaign['service']['wall_seconds']:.2f} s)",
                f"speedup: {campaign['speedup']:.2f}x",
                f"cache:   {cache['hits']} hits / {cache['misses']} misses "
                f"(hit rate {cache['hit_rate']:.3f})",
            ]
        ),
    )


def test_campaign_all_units_complete(campaign):
    """Failure isolation aside, a healthy campaign completes everything
    and no conformance seed regresses."""
    assert campaign["service"]["failed_units"] == 0
    assert campaign["service"]["failing_cases"] == 0


def test_campaign_throughput_beats_serial(campaign):
    """Loose in-test floor; the committed-baseline gate in
    check_bench.py is the strict one (3x full mode)."""
    floor = 1.2 if QUICK else 2.0
    assert campaign["speedup"] >= floor, (
        f"campaign speedup {campaign['speedup']:.2f}x below {floor}x"
    )


def test_campaign_cache_hit_rate(campaign):
    """Repeated-graph workload: all but the first visit of each of the
    DISTINCT graphs must hit the analysis cache."""
    cache = campaign["service"]["report"]["cache"]
    assert cache["hit_rate"] >= 0.9, (
        f"cache hit rate {cache['hit_rate']:.3f} below 0.9"
    )


def test_campaign_lifecycle_records_persisted(campaign):
    """One run record per unit, all terminal, none still queued."""
    from repro.service import RunStore

    records = RunStore(RUNS_DIR).list()
    assert len(records) >= RUNS
    states = {record.state for record in records}
    assert states <= {"done", "failed"}


def test_campaign_bench_export(campaign):
    report = campaign["service"]["report"]
    path = save_bench_json(
        "campaign",
        makespan_cycles=report["bench"]["makespan_cycles"],
        iteration_period_cycles=0.0,
        wall_seconds=campaign["service"]["wall_seconds"],
        extra={
            "runs": RUNS,
            "distinct_graphs": DISTINCT,
            "workers": WORKERS,
            "serial": campaign["serial"],
            "service": {
                "wall_seconds": campaign["service"]["wall_seconds"],
                "runs_per_sec": campaign["service"]["runs_per_sec"],
                "failed_units": campaign["service"]["failed_units"],
                "failing_cases": campaign["service"]["failing_cases"],
            },
            "speedup": campaign["speedup"],
            "cache": report["cache"],
        },
    )
    assert path.exists()
