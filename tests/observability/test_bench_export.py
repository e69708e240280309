"""BENCH_*.json perf documents: schema and writer behaviour."""

import json

import pytest

from repro.observability import (
    BENCH_SCHEMA,
    BenchValidationError,
    bench_document,
    validate_bench,
    write_bench_json,
)


def test_document_shape():
    document = bench_document(
        "fig6_lpc_scaling",
        makespan_cycles=5000,
        iteration_period_cycles=1000.0,
        wall_seconds=0.5,
        quick=True,
        extra={"n_units": 4},
    )
    assert document["schema"] == BENCH_SCHEMA
    assert document["cycles_per_wall_second"] == 10000.0
    assert document["quick"] is True
    assert document["extra"] == {"n_units": 4}


def test_zero_wall_time_is_safe():
    document = bench_document(
        "x", makespan_cycles=10, iteration_period_cycles=1.0, wall_seconds=0.0
    )
    assert document["cycles_per_wall_second"] == 0.0


def test_negative_wall_time_rejected():
    with pytest.raises(ValueError):
        bench_document(
            "x",
            makespan_cycles=10,
            iteration_period_cycles=1.0,
            wall_seconds=-1.0,
        )


def test_write_round_trips(tmp_path):
    document = bench_document(
        "smoke", makespan_cycles=42, iteration_period_cycles=7.0,
        wall_seconds=0.1,
    )
    path = write_bench_json(tmp_path, document)
    assert path.name == "BENCH_smoke.json"
    loaded = json.loads(path.read_text())
    assert loaded == document


def test_write_rejects_foreign_documents(tmp_path):
    with pytest.raises(ValueError, match="schema"):
        write_bench_json(tmp_path, {"name": "x"})


def test_periodic_workload_rejects_zero_period():
    """The historical BENCH_kernel.json bug: a workload that declares
    itself periodic but reports iteration_period_cycles=0.0 means the
    producer never computed the period — the schema gate refuses it."""
    document = bench_document(
        "kernel",
        makespan_cycles=100,
        iteration_period_cycles=0.0,
        wall_seconds=0.1,
        extra={"periodic": True},
    )
    with pytest.raises(BenchValidationError, match="periodic"):
        validate_bench(document)


def test_periodic_workload_rejects_negative_period(tmp_path):
    document = bench_document(
        "kernel",
        makespan_cycles=100,
        iteration_period_cycles=-3.0,
        wall_seconds=0.1,
        extra={"periodic": True},
    )
    with pytest.raises(BenchValidationError, match="periodic"):
        write_bench_json(tmp_path, document)


def test_non_periodic_workload_allows_zero_period(tmp_path):
    """Synthetic kernel microbenches have no iteration period; only a
    declared-periodic workload is held to a positive one."""
    document = bench_document(
        "scratch",
        makespan_cycles=100,
        iteration_period_cycles=0.0,
        wall_seconds=0.1,
    )
    validate_bench(document)
    assert write_bench_json(tmp_path, document).exists()


def test_periodic_workload_accepts_real_period():
    document = bench_document(
        "kernel",
        makespan_cycles=100,
        iteration_period_cycles=3118.0,
        wall_seconds=0.1,
        extra={"periodic": True},
    )
    validate_bench(document)


def test_missing_keys_rejected():
    document = bench_document(
        "x", makespan_cycles=1, iteration_period_cycles=1.0, wall_seconds=0.1
    )
    del document["wall_seconds"]
    with pytest.raises(BenchValidationError, match="wall_seconds"):
        validate_bench(document)


def test_inconsistent_throughput_rejected():
    """cycles_per_wall_second must be makespan_cycles / wall_seconds, so
    a producer that divides by the wall of a different unit (the 5 us
    wall_seconds bug) cannot write a document that disagrees with
    itself."""
    document = bench_document(
        "x", makespan_cycles=1000, iteration_period_cycles=1.0, wall_seconds=0.5
    )
    document["cycles_per_wall_second"] = 1000 / 5e-6
    with pytest.raises(BenchValidationError, match="cycles_per_wall_second"):
        validate_bench(document)


def test_zero_wall_time_requires_zero_throughput():
    document = bench_document(
        "x", makespan_cycles=10, iteration_period_cycles=1.0, wall_seconds=0.0
    )
    validate_bench(document)
    document["cycles_per_wall_second"] = 1e-12
    with pytest.raises(BenchValidationError, match="cycles_per_wall_second"):
        validate_bench(document)


def test_ill_typed_keys_rejected():
    document = bench_document(
        "x", makespan_cycles=1, iteration_period_cycles=1.0, wall_seconds=0.1
    )
    document["wall_seconds"] = "0.1"
    with pytest.raises(BenchValidationError, match="wall_seconds"):
        validate_bench(document)


@pytest.mark.parametrize(
    "filename",
    [
        "BENCH_kernel.json",
        "BENCH_campaign.json",
        "BENCH_collectives.json",
        "BENCH_batching.json",
    ],
)
def test_committed_kernel_baseline_validates(filename):
    """The committed full-mode baselines must themselves pass the gate
    that write_bench_json applies — including the positive-period rule
    for the kernel's periodic workload."""
    from pathlib import Path

    baseline = (
        Path(__file__).parent.parent.parent / "benchmarks" / "results" / filename
    )
    document = json.loads(baseline.read_text())
    validate_bench(document)
    assert document["quick"] is False
    if document["name"] == "kernel":
        assert document["extra"]["periodic"] is True
        assert document["iteration_period_cycles"] > 0
