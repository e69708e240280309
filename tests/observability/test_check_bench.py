"""benchmarks/check_bench.py: the one gate over the committed bench baselines.

Every floor row is crossed by a doctored copy of its committed document,
and every kind of unusable input must exit 2 rather than crash.
"""

import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

# benchmarks/ is not a package, so load the script by path
_spec = importlib.util.spec_from_file_location(
    "check_bench", BENCHMARKS / "check_bench.py"
)
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)

NAMES = ("kernel", "campaign", "collectives", "batching")


def committed(name):
    return json.loads((BENCHMARKS / "results" / f"BENCH_{name}.json").read_text())


def edit(document, path, change):
    """Replace the value at dotted ``path`` (list indices allowed) with
    ``change(old value)``."""
    *parents, last = path.split(".")
    node = document
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    if isinstance(node, list):
        last = int(last)
    node[last] = change(node[last])


def put(path, value):
    return lambda document: edit(document, path, lambda old: value)


def scale(path, factor):
    return lambda document: edit(document, path, lambda old: old * factor)


def thin_reduction(document):
    """Keep the strict win at the largest p but drop the ratio to 1.2x."""
    largest = max(document["extra"]["rows"], key=lambda row: row["n_pes"])
    largest["collective"]["wire_messages"] = int(
        largest["p2p"]["wire_messages"] / 1.2
    )


def no_period(document):
    """A zero period on a workload that does not declare itself periodic
    passes validate_bench, so only the gate's own floor can catch it."""
    document["iteration_period_cycles"] = 0.0
    document["extra"]["periodic"] = False


def run_gate(tmp_path, capsys, baseline, current):
    paths = []
    for role, document in (("baseline", baseline), ("current", current)):
        path = tmp_path / f"{role}.json"
        path.write_text(
            document if isinstance(document, str) else json.dumps(document)
        )
        paths.append(str(path))
    status = check_bench.main(["check_bench.py", *paths])
    return status, capsys.readouterr().out


#: (document, floor tag, doctor, gate against the committed baseline?).
#: Floors on the current document alone are gated against the doctored
#: copy itself, so the same-mode comparison cannot fire as well.
FLOOR_ROWS = [
    ("kernel", "steady_speedup", put("extra.steady_state.fig6.speedup", 4.0), False),
    (
        "kernel",
        "auto_slowdown",
        scale("extra.steady_state.fig7.auto_wall_seconds", 1.5),
        False,
    ),
    ("kernel", "period", no_period, False),
    (
        "kernel",
        "tolerance",
        scale("extra.workloads.wide.mean_events_per_second", 0.7),
        True,
    ),
    ("kernel", "tolerance", lambda d: d["extra"]["workloads"].pop("deep"), True),
    ("campaign", "speedup", put("extra.speedup", 2.9), False),
    ("campaign", "hit_rate", put("extra.cache.hit_rate", 0.85), False),
    ("campaign", "failed_units", put("extra.service.failed_units", 1), False),
    ("campaign", "tolerance", scale("extra.speedup", 0.6), True),
    ("campaign", "tolerance", scale("extra.service.runs_per_sec", 0.6), True),
    # rows 1 and 2 hold p=4 and the largest p, p=6
    (
        "collectives",
        "win_from_pes",
        scale("extra.rows.1.collective.wire_messages", 10),
        False,
    ),
    (
        "collectives",
        "win_from_pes",
        scale("extra.rows.1.collective.wire_bytes", 10),
        False,
    ),
    ("collectives", "reduction", thin_reduction, False),
    (
        "collectives",
        "tolerance",
        scale("extra.rows.2.collective.wire_bytes", 1.01),
        True,
    ),
    ("batching", "fig6_speedup", scale("extra.fig6_best_cycles", 1.5), False),
    ("batching", "hetero", scale("extra.hetero_vs_homo.hetero_cycles", 2), False),
    ("batching", "fig7_batch", put("extra.fig7.effective_batch", 2), False),
    ("batching", "fig7_batch", put("extra.fig7.batch_dispatches", 3), False),
    ("batching", "kernel_speedup", put("extra.kernels.0.speedup", 0.9), False),
    ("batching", "tolerance", scale("extra.rows.0.cycles", 1.01), True),
    # the same events/s on a host that calibrated 30% faster
    ("kernel", "tolerance", scale("extra.workloads.wide.host_factor", 0.7), True),
]


def doctored(name, doctor):
    document = committed(name)
    doctor(document)
    return document


@pytest.mark.parametrize("name", NAMES)
def test_committed_baseline_passes_against_itself(tmp_path, capsys, name):
    status, out = run_gate(tmp_path, capsys, committed(name), committed(name))
    assert status == 0, out
    assert f"{name} benchmark OK" in out


@pytest.mark.parametrize(
    "name, tag, doctor, against_committed",
    FLOOR_ROWS,
    ids=[f"{row[0]}-{row[1]}-{i}" for i, row in enumerate(FLOOR_ROWS)],
)
def test_crossing_one_floor_fails_and_names_it(
    tmp_path, capsys, name, tag, doctor, against_committed
):
    current = doctored(name, doctor)
    baseline = committed(name) if against_committed else current
    status, out = run_gate(tmp_path, capsys, baseline, current)
    assert status == 1, out
    failures = [line for line in out.splitlines() if line.startswith("  - ")]
    assert len(failures) == 1, out
    assert failures[0].startswith(f"  - [{tag}]"), out


@pytest.mark.parametrize(
    "name, doctor",
    [(name, doctor) for name, tag, doctor, same in FLOOR_ROWS if same],
)
def test_quick_vs_full_skips_the_baseline_comparison(tmp_path, capsys, name, doctor):
    current = doctored(name, doctor)
    current["quick"] = True
    status, out = run_gate(tmp_path, capsys, committed(name), current)
    assert status == 0, out
    assert "comparison skipped" in out


def test_quick_vs_full_still_applies_the_quick_floors(tmp_path, capsys):
    # 3x clears the 2x quick steady-state floor but not the 5x full one
    current = doctored("kernel", put("extra.steady_state.fig6.speedup", 3.0))
    status, out = run_gate(tmp_path, capsys, committed("kernel"), current)
    assert status == 1 and "[steady_speedup]" in out, out
    current["quick"] = True
    status, out = run_gate(tmp_path, capsys, committed("kernel"), current)
    assert status == 0, out
    current["extra"]["steady_state"]["fig6"]["speedup"] = 1.5
    status, out = run_gate(tmp_path, capsys, committed("kernel"), current)
    assert status == 1 and "[steady_speedup]" in out, out


def test_kernel_events_per_second_are_compared_at_one_host_speed(
    tmp_path, capsys
):
    """A run in the host's slow phase (every workload 40% slower, and a
    host factor to match) passes against the committed baseline."""

    def slow_phase(document):
        for stats in document["extra"]["workloads"].values():
            stats["mean_events_per_second"] *= 0.6
            stats["host_factor"] /= 0.6

    current = doctored("kernel", slow_phase)
    status, out = run_gate(tmp_path, capsys, committed("kernel"), current)
    assert status == 0, out


def test_quick_mode_skips_the_wall_clock_kernel_floor(tmp_path, capsys):
    current = doctored("batching", put("extra.kernels.0.speedup", 0.9))
    current["quick"] = True
    status, out = run_gate(tmp_path, capsys, current, current)
    assert status == 0, out


@pytest.mark.parametrize(
    "baseline, current",
    [
        (
            "batching",
            doctored("batching", lambda d: d["extra"].pop("fig6_best_cycles")),
        ),
        ("campaign", doctored("campaign", lambda d: d["extra"].pop("cache"))),
        ("kernel", doctored("kernel", lambda d: d["extra"].pop("workloads"))),
        (
            "kernel",
            doctored(
                "kernel", lambda d: d["extra"]["workloads"]["deep"].pop("host_factor")
            ),
        ),
        ("collectives", doctored("collectives", put("extra.rows", []))),
        ("campaign", doctored("campaign", put("extra.speedup", "fast"))),
        ("batching", doctored("batching", put("extra.fig7", [1]))),
        ("kernel", doctored("kernel", put("cycles_per_wall_second", 1.0))),
        ("kernel", committed("campaign")),
        ("kernel", "{not json"),
        (
            doctored("kernel", put("name", "fig6_lpc_scaling")),
            doctored("kernel", put("name", "fig6_lpc_scaling")),
        ),
    ],
    ids=[
        "batching-no-fig6_best_cycles",
        "campaign-no-cache",
        "kernel-no-workloads",
        "kernel-no-host-factor",
        "collectives-empty-rows",
        "campaign-ill-typed-speedup",
        "batching-ill-typed-fig7",
        "kernel-inconsistent-throughput",
        "name-mismatch",
        "unreadable-json",
        "unknown-name",
    ],
)
def test_unusable_input_exits_2(tmp_path, capsys, baseline, current):
    if isinstance(baseline, str):
        baseline = committed(baseline)
    status, out = run_gate(tmp_path, capsys, baseline, current)
    assert status == 2, out
    assert out.startswith("error: ") and out.count("\n") == 1, out
