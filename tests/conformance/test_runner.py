"""Campaign runner tests: report schema, determinism, seed replay."""

import pytest

from repro.conformance import CampaignConfig, run_campaign
from repro.observability.bench import BENCH_SCHEMA


def _scrub_wall_time(report):
    """Strip wall-clock fields; everything else must be deterministic."""
    scrubbed = dict(report)
    bench = dict(scrubbed["bench"])
    bench.pop("wall_seconds")
    bench.pop("cycles_per_wall_second")
    scrubbed["bench"] = bench
    return scrubbed


class TestCampaign:
    def test_report_schema_and_bench_embedding(self):
        report = run_campaign(CampaignConfig(seeds=3, quick=True))
        assert report["schema"] == "repro.conformance/1"
        assert report["checked"] == 3
        assert report["failing_seeds"] == []
        assert report["bench"]["schema"] == BENCH_SCHEMA
        assert report["bench"]["extra"]["seeds"] == 3
        assert len(report["cases"]) == 3

    def test_campaign_is_deterministic(self):
        config = CampaignConfig(seeds=4, quick=True)
        first = _scrub_wall_time(run_campaign(config))
        second = _scrub_wall_time(run_campaign(config))
        assert first == second

    def test_seed_start_offsets_the_range(self):
        report = run_campaign(
            CampaignConfig(seeds=2, seed_start=10, quick=True)
        )
        seeds = [case["seed"] for case in report["cases"]]
        assert seeds == [10, 11]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(seeds=0)
        with pytest.raises(ValueError):
            CampaignConfig(iterations=0)


class TestReplay:
    def test_replay_matches_campaign_member(self):
        """--replay SEED must reproduce the campaign's result for that
        seed exactly (modulo wall time)."""
        campaign = run_campaign(
            CampaignConfig(seeds=3, seed_start=5, quick=True)
        )
        # what ``repro conform --replay 6`` runs
        replayed = run_campaign(
            CampaignConfig(seeds=1, seed_start=6, quick=True)
        )
        campaign_case = next(
            case for case in campaign["cases"] if case["seed"] == 6
        )
        assert replayed["cases"] == [campaign_case]
        assert replayed["checked"] == 1
        assert replayed["seed_start"] == 6
