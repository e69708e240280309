"""Oracle-stack tests: clean seeds pass, injected defects are caught."""

import sys

import pytest

import repro.spi.library
from repro.conformance import (
    ActorSpec,
    CampaignConfig,
    EdgeSpec,
    GraphShape,
    GraphSpec,
    Violation,
    build_case,
    generate_spec,
    run_campaign,
    run_oracle_stack,
    run_reference,
)
from repro.conformance.oracles import _spi_run_matrix
from repro.conformance.reference import ReferenceError
from repro.mpi import MpiSystem
from repro.spi import SpiSystem, lower


class TestReferenceExecution:
    def test_reference_streams_cover_every_actor(self):
        case = build_case(generate_spec(0))
        streams = run_reference(case, iterations=2)
        assert set(streams) == {a.name for a in case.spec.actors}
        reps = case.spec.repetitions()
        for name, firings in streams.items():
            assert len(firings) == 2 * reps[name]
            # firing indices are consecutive from zero
            assert [entry[0] for entry in firings] == list(
                range(2 * reps[name])
            )

    def test_reference_validates_iterations(self):
        case = build_case(generate_spec(0))
        with pytest.raises(ReferenceError):
            run_reference(case, iterations=0)


class TestCleanSeedsConform:
    @pytest.mark.parametrize("seed", range(8))
    def test_full_stack_clean(self, seed):
        case = build_case(generate_spec(seed))
        report = run_oracle_stack(case)
        assert report.ok, [v.to_json() for v in report.violations]
        assert "spi" in report.runs
        assert "mpi" in report.runs
        assert "reference" in report.runs

    def test_quick_mode_runs_fewer_configs(self):
        case = build_case(generate_spec(1))
        report = run_oracle_stack(case, quick=True)
        assert report.ok
        assert "spi-noresync" not in report.runs
        assert "spi-ubs" not in report.runs


class TestDefectsAreCaught:
    def test_mutated_occupancy_bound_fires(self):
        """Tightening the bound below real occupancy must raise a
        violation — proof the occupancy oracle actually observes the
        simulated buffers (mutation check, ISSUE acceptance)."""

        def off_by_one(plan):
            return max(0, plan.capacity_messages - 1) * plan.message_payload_bytes

        caught = 0
        for seed in range(10):
            case = build_case(generate_spec(seed))
            report = run_oracle_stack(case, occupancy_bound_fn=off_by_one)
            if any(v.oracle == "occupancy" for v in report.violations):
                caught += 1
        assert caught > 0

    def test_execution_failure_is_reported_not_raised(self):
        """A structurally deadlocked graph (zero-delay cycle) turns into
        an execution violation, not an exception."""
        spec = GraphSpec(
            seed=123,
            actors=(ActorSpec("a0", 1, 5), ActorSpec("a1", 1, 5)),
            edges=(
                EdgeSpec(src="a0", snk="a1"),
                EdgeSpec(src="a1", snk="a0", delay_tokens=0),
            ),
            n_pes=2,
            assignment=(("a0", 0), ("a1", 1)),
        )
        case = build_case(spec)
        report = run_oracle_stack(case, quick=True)
        assert not report.ok
        assert all(v.oracle == "execution" for v in report.violations)

    def test_report_json_shape(self):
        case = build_case(generate_spec(2))
        document = run_oracle_stack(case, quick=True).to_json()
        assert document["ok"] is True
        assert document["seed"] == 2
        assert "spi" in document["runs"]


def _count_lowerings(monkeypatch):
    """Count ``lower`` calls through every module that binds the name."""
    original = repro.spi.library.lower
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and getattr(
            module, "lower", None
        ) is original:
            monkeypatch.setattr(module, "lower", counting)
    return calls


_COUNTERS = (
    "cycles",
    "data_messages",
    "ack_messages",
    "resync_messages",
    "payload_bytes",
    "header_bytes",
    "ack_bytes",
    "resync_bytes",
    "buffer_high_water",
    "fifo_high_water",
    "collective_messages",
    "fan_out_deliveries",
)


class TestSharedLowering:
    def test_full_campaign_lowers_each_case_once(self, monkeypatch):
        calls = _count_lowerings(monkeypatch)
        report = run_campaign(CampaignConfig(seeds=5))
        assert report["checked"] == 5
        assert report["failing_seeds"] == []
        assert len(calls) == 5

    def test_ablate_resync_lowers_once(self, monkeypatch):
        from repro.service import RunContext, run_operation

        calls = _count_lowerings(monkeypatch)
        result = run_operation(
            "ablate.resync",
            {"app": "chain", "pes": 3, "iterations": 2},
            RunContext(),
        )
        assert result.ok
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "seed, shape",
        [(0, GraphShape()), (5, GraphShape()), (10, GraphShape()),
         (1, GraphShape(collective_prob=1.0))],
    )
    def test_shared_lowering_runs_match_fresh_lowerings(self, seed, shape):
        case = build_case(generate_spec(seed, shape))
        shared = lower(case.graph, case.partition)

        def run_all(tag, lowering_for):
            observed = {}
            for label, config in _spi_run_matrix(quick=False):
                system = SpiSystem.compile(
                    case.graph, case.partition, config,
                    lowering=lowering_for(),
                )
                case.tap.begin(f"{tag}/{label}")
                result = system.run(iterations=3)
                observed[label] = (
                    {k: getattr(result, k) for k in _COUNTERS},
                    case.tap.streams(f"{tag}/{label}"),
                )
            system = MpiSystem.compile(
                case.graph, case.partition, lowering=lowering_for()
            )
            case.tap.begin(f"{tag}/mpi")
            result = system.run(iterations=3)
            observed["mpi"] = (
                {k: getattr(result, k) for k in _COUNTERS},
                case.tap.streams(f"{tag}/mpi"),
            )
            return observed

        with_shared = run_all("shared", lambda: shared)
        with_fresh = run_all(
            "fresh", lambda: lower(case.graph, case.partition)
        )
        assert with_shared == with_fresh
        assert all(streams for _, streams in with_shared.values())

    @pytest.mark.parametrize("quick", [False, True])
    def test_lowering_failure_fails_every_run_alike(self, monkeypatch, quick):
        def broken(*_args, **_kwargs):
            raise RuntimeError("lowering exploded")

        monkeypatch.setattr("repro.conformance.oracles.lower", broken)
        report = run_oracle_stack(build_case(generate_spec(0)), quick=quick)
        labels = ["spi", "mpi"] if quick else [
            "spi", "spi-noresync", "spi-ubs", "mpi"
        ]
        assert report.violations == [
            Violation("execution", label, "RuntimeError: lowering exploded")
            for label in labels
        ]
        assert list(report.runs) == ["reference"]
