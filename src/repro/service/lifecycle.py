"""Run-lifecycle records: queued → running → done/failed, persisted.

Every unit of a campaign gets a :class:`RunRecord` that tracks its
state machine, wall time, the shard that executed it, summary metrics
and the paths of any artefacts it produced.  Records serialise to the
``repro.run/1`` JSON schema and a :class:`RunStore` persists one file
per run, which the CI campaign job uploads as artefacts — a failed
campaign leaves the per-run forensics on disk even when the process
that drove it is gone.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

__all__ = ["LifecycleError", "RunRecord", "RunStore", "RUN_SCHEMA"]

#: schema identifier of persisted run records
RUN_SCHEMA = "repro.run/1"

#: legal state transitions of one run
_TRANSITIONS = {
    "queued": ("running",),
    "running": ("done", "failed"),
    "done": (),
    "failed": (),
}


class LifecycleError(RuntimeError):
    """An illegal run-state transition was attempted."""


@dataclass
class RunRecord:
    """One campaign unit's identity, state and outcome."""

    run_id: str
    operation: str
    params: Dict[str, object] = field(default_factory=dict)
    state: str = "queued"
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    shard: Optional[int] = None
    error: Optional[str] = None
    metrics: Dict[str, object] = field(default_factory=dict)
    artifacts: List[str] = field(default_factory=list)

    def _transition(self, target: str) -> None:
        allowed = _TRANSITIONS.get(self.state, ())
        if target not in allowed:
            raise LifecycleError(
                f"run {self.run_id!r}: illegal transition "
                f"{self.state!r} -> {target!r}"
            )
        self.state = target

    def mark_running(self, shard: Optional[int] = None) -> None:
        self._transition("running")
        self.shard = shard
        self.started_at = time.time()

    def mark_done(self, metrics: Optional[Dict[str, object]] = None) -> None:
        self._transition("done")
        self.finished_at = time.time()
        if metrics:
            self.metrics.update(metrics)

    def mark_failed(self, error: str) -> None:
        self._transition("failed")
        self.finished_at = time.time()
        self.error = error

    @property
    def wall_seconds(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": RUN_SCHEMA,
            "run_id": self.run_id,
            "operation": self.operation,
            "params": self.params,
            "state": self.state,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_seconds": self.wall_seconds,
            "shard": self.shard,
            "error": self.error,
            "metrics": self.metrics,
            "artifacts": self.artifacts,
        }

    @classmethod
    def from_json(cls, raw: Dict[str, object]) -> "RunRecord":
        if raw.get("schema") != RUN_SCHEMA:
            raise ValueError(
                f"unknown run-record schema {raw.get('schema')!r} "
                f"(expected {RUN_SCHEMA})"
            )
        record = cls(
            run_id=raw["run_id"],
            operation=raw["operation"],
            params=dict(raw.get("params", {})),
        )
        record.state = raw["state"]
        record.created_at = raw["created_at"]
        record.started_at = raw.get("started_at")
        record.finished_at = raw.get("finished_at")
        record.shard = raw.get("shard")
        record.error = raw.get("error")
        record.metrics = dict(raw.get("metrics", {}))
        record.artifacts = list(raw.get("artifacts", []))
        return record


class RunStore:
    """One JSON file per run record under a directory."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, record: RunRecord) -> Path:
        return self.directory / f"{record.run_id}.json"

    def save(self, record: RunRecord) -> Path:
        target = self.path_for(record)
        target.write_text(json.dumps(record.to_json(), indent=2) + "\n")
        return target

    def list(self) -> List[RunRecord]:
        return [
            RunRecord.from_json(json.loads(path.read_text()))
            for path in sorted(self.directory.glob("*.json"))
        ]
