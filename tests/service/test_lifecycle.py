"""Run-lifecycle records: state machine, serialisation, persistence."""

import pytest

from repro.service import LifecycleError, RunRecord, RunStore
from repro.service.lifecycle import RUN_SCHEMA


def _record():
    return RunRecord(
        run_id="test-00001", operation="conform.seed", params={"seed": 1}
    )


class TestStateMachine:
    def test_happy_path(self):
        record = _record()
        assert record.state == "queued"
        record.mark_running(shard=2)
        assert record.state == "running"
        assert record.shard == 2
        record.mark_done(metrics={"cycles": 42})
        assert record.state == "done"
        assert record.metrics == {"cycles": 42}
        assert record.wall_seconds is not None
        assert record.wall_seconds >= 0.0

    def test_failure_path(self):
        record = _record()
        record.mark_running()
        record.mark_failed("RuntimeError: boom")
        assert record.state == "failed"
        assert record.error == "RuntimeError: boom"

    @pytest.mark.parametrize(
        "steps",
        [
            ("mark_done",),  # queued -> done skips running
            ("mark_failed",),  # queued -> failed skips running
            ("mark_running", "mark_running"),  # double start
            ("mark_running", "mark_done", "mark_failed"),  # done is terminal
            ("mark_running", "mark_failed", "mark_running"),  # failed too
        ],
    )
    def test_illegal_transitions(self, steps):
        record = _record()
        with pytest.raises(LifecycleError, match="illegal transition"):
            for step in steps:
                if step == "mark_failed":
                    record.mark_failed("x")
                else:
                    getattr(record, step)()

    def test_wall_seconds_none_until_finished(self):
        record = _record()
        assert record.wall_seconds is None
        record.mark_running()
        assert record.wall_seconds is None


class TestSerialisation:
    def test_round_trip(self):
        record = _record()
        record.mark_running(shard=1)
        record.mark_done(metrics={"ok": True})
        record.artifacts.append("results/foo.json")
        raw = record.to_json()
        assert raw["schema"] == RUN_SCHEMA
        clone = RunRecord.from_json(raw)
        assert clone.to_json() == raw

    def test_unknown_schema_rejected(self):
        raw = _record().to_json()
        raw["schema"] = "repro.run/99"
        with pytest.raises(ValueError, match="unknown run-record schema"):
            RunRecord.from_json(raw)


class TestRunStore:
    def test_save_load_list(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        first = _record()
        second = RunRecord(run_id="test-00002", operation="simulate.app")
        second.mark_running()
        second.mark_failed("boom")
        store.save(first)
        store.save(second)

        listed = store.list()
        assert [record.run_id for record in listed] == [
            "test-00001",
            "test-00002",
        ]
        assert listed[0].state == "queued"
        assert listed[1].error == "boom"

    def test_save_overwrites_in_place(self, tmp_path):
        store = RunStore(tmp_path)
        record = _record()
        store.save(record)
        record.mark_running()
        record.mark_done()
        store.save(record)
        (loaded,) = store.list()
        assert (loaded.run_id, loaded.state) == (record.run_id, "done")
