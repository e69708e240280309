"""Campaign engine: lifecycle persistence, isolation, determinism."""

import pytest

from repro.service import (
    CampaignPlan,
    Operation,
    OperationResult,
    OperationSpec,
    Param,
    RunStore,
    run_service_campaign,
)
from repro.service.campaign import CAMPAIGN_SCHEMA
from repro.service.registry import _REGISTRY, register_operation

if "test.flaky" not in _REGISTRY:

    @register_operation
    class _FlakyOperation(Operation):
        """Test-only operation: raises on value 3, succeeds otherwise."""

        name = "test.flaky"
        description = "test fixture"
        spec = OperationSpec(
            params=(Param("value", int, required=True, help="input"),)
        )

        def execute(self, params, context):
            if params["value"] == 3:
                raise RuntimeError("flaky unit exploded")
            return OperationResult(
                status="completed",
                payload={"value": params["value"] * 2},
                metrics={"cycles": params["value"]},
            )


def _units(values):
    return [{"value": value} for value in values]


class TestCampaignLifecycle:
    def test_records_persisted_with_terminal_states(self, tmp_path):
        runs_dir = tmp_path / "runs"
        report = run_service_campaign(
            CampaignPlan(
                operation="test.flaky",
                units=_units([1, 2, 4]),
                runs_dir=str(runs_dir),
                name="persist",
            )
        )
        assert report["schema"] == CAMPAIGN_SCHEMA
        assert report["completed"] == 3

        records = RunStore(runs_dir).list()
        assert [record.run_id for record in records] == [
            "persist-00000",
            "persist-00001",
            "persist-00002",
        ]
        for record in records:
            assert record.state == "done"
            assert record.operation == "test.flaky"
            assert record.wall_seconds is not None

    def test_failed_unit_is_recorded_as_failed(self, tmp_path):
        report = run_service_campaign(
            CampaignPlan(
                operation="test.flaky",
                units=_units([1, 3, 4]),
                runs_dir=str(tmp_path),
                name="fails",
            )
        )
        assert report["completed"] == 2
        assert len(report["failures"]) == 1
        assert report["failures"][0]["run_id"] == "fails-00001"
        assert "flaky unit exploded" in report["failures"][0]["error"]

        records = {r.run_id: r for r in RunStore(tmp_path).list()}
        assert records["fails-00000"].state == "done"
        failed = records["fails-00001"]
        assert failed.state == "failed"
        assert "flaky unit exploded" in failed.error
        assert records["fails-00002"].state == "done"

    def test_malformed_unit_fails_before_any_execution(self, tmp_path):
        from repro.service import RegistryError

        with pytest.raises(RegistryError, match="expected int, got str"):
            run_service_campaign(
                CampaignPlan(
                    operation="test.flaky",
                    units=[{"value": 1}, {"value": "nope"}],
                    runs_dir=str(tmp_path),
                )
            )
        assert RunStore(tmp_path).list() == []  # nothing was started

    def test_failure_isolation_across_shards(self):
        """One raising unit must not take the rest of a multiprocess
        campaign down with it."""
        report = run_service_campaign(
            CampaignPlan(
                operation="test.flaky",
                units=_units([1, 2, 3, 4, 5, 6]),
                workers=2,
            )
        )
        assert report["completed"] == 5
        assert [f["index"] for f in report["failures"]] == [2]
        values = [
            result["payload"]["value"] if result else None
            for result in report["results"]
        ]
        assert values == [2, 4, None, 8, 10, 12]


def _conform_cases(report):
    return [result["payload"]["case"] for result in report["results"]]


def _conform_plan(seeds, workers=1, use_cache=True):
    return CampaignPlan(
        operation="conform.seed",
        units=[
            {"seed": seed, "quick": True, "shrink": False} for seed in seeds
        ],
        workers=workers,
        use_cache=use_cache,
    )


class TestCampaignDeterminism:
    # repeated-graph list: seeds repeat, so the cache is exercised
    SEEDS = [0, 1, 2, 0, 1, 2, 0, 1, 2]

    def test_cached_matches_uncached_verdicts(self):
        """Acceptance criterion: the analysis cache must not change any
        oracle verdict."""
        cached = run_service_campaign(_conform_plan(self.SEEDS))
        uncached = run_service_campaign(
            _conform_plan(self.SEEDS, use_cache=False)
        )
        assert cached["cache"]["hits"] > 0
        assert uncached["cache"]["hits"] == 0
        assert _conform_cases(cached) == _conform_cases(uncached)

    def test_sharded_matches_inline_verdicts(self):
        inline = run_service_campaign(_conform_plan(self.SEEDS, workers=1))
        sharded = run_service_campaign(_conform_plan(self.SEEDS, workers=2))
        assert _conform_cases(inline) == _conform_cases(sharded)

    def test_repeated_campaigns_are_independent(self):
        """Each campaign gets a fresh cache: hit/miss accounting must be
        identical on a second identical campaign, not all-hits."""
        first = run_service_campaign(_conform_plan(self.SEEDS))
        second = run_service_campaign(_conform_plan(self.SEEDS))
        assert first["cache"] == second["cache"]
