"""Per-benchmark perf artefacts: the ``BENCH_<name>.json`` feed.

Every benchmark can distil its run into one small JSON document —
makespan, simulated cycles per wall-clock second, channel traffic — that
the CI benchmark-smoke job uploads as an artifact.  Stacked over
commits, these files are the perf trajectory the growth loop gates on.

Schema (``repro.bench/1``)::

    {
      "schema": "repro.bench/1",
      "name": "<benchmark name>",
      "quick": bool,                  # reduced CI sweep?
      "makespan_cycles": int,
      "iteration_period_cycles": float,
      "wall_seconds": float,          # wall time of the measured unit
      "cycles_per_wall_second": float,
      "extra": {...}                  # benchmark-specific numbers
    }
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Optional

__all__ = [
    "BENCH_SCHEMA",
    "BenchValidationError",
    "bench_document",
    "validate_bench",
    "write_bench_json",
]

#: schema identifier stamped into every BENCH_*.json
BENCH_SCHEMA = "repro.bench/1"


class BenchValidationError(ValueError):
    """A bench document violates its schema."""


def _throughput(makespan_cycles: float, wall_seconds: float) -> float:
    return makespan_cycles / wall_seconds if wall_seconds > 0 else 0.0


def bench_document(
    name: str,
    makespan_cycles: int,
    iteration_period_cycles: float,
    wall_seconds: float,
    quick: bool = False,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Build one benchmark's perf document."""
    if wall_seconds < 0:
        raise ValueError("wall_seconds must be >= 0")
    return {
        "schema": BENCH_SCHEMA,
        "name": name,
        "quick": quick,
        "makespan_cycles": makespan_cycles,
        "iteration_period_cycles": iteration_period_cycles,
        "wall_seconds": wall_seconds,
        "cycles_per_wall_second": _throughput(makespan_cycles, wall_seconds),
        "extra": dict(extra or {}),
    }


_NUMBER = (int, float)

#: every top-level key and the type its value must have
_REQUIRED_KEYS = {
    "schema": str,
    "name": str,
    "quick": bool,
    "makespan_cycles": _NUMBER,
    "iteration_period_cycles": _NUMBER,
    "wall_seconds": _NUMBER,
    "cycles_per_wall_second": _NUMBER,
    "extra": dict,
}


def validate_bench(document: Dict[str, object]) -> None:
    """Schema gate for one bench document.

    Every key must be present with its type, and the document must
    agree with itself: ``cycles_per_wall_second`` is
    ``makespan_cycles / wall_seconds`` (0.0 when the wall is 0), so a
    producer that times one unit but divides by another is caught.

    A workload that declares itself periodic (``extra["periodic"]``
    truthy) must report a real, positive ``iteration_period_cycles`` —
    a 0.0 there means the producer forgot to compute the period (the
    historical BENCH_kernel.json bug) and is rejected.
    """
    if document.get("schema") != BENCH_SCHEMA:
        raise BenchValidationError(
            f"not a bench document (schema {document.get('schema')!r})"
        )
    missing = [k for k in _REQUIRED_KEYS if k not in document]
    if missing:
        raise BenchValidationError(f"missing bench keys: {missing}")
    ill_typed = [
        key
        for key, kind in _REQUIRED_KEYS.items()
        if not isinstance(document[key], kind)
        or (isinstance(document[key], bool) and kind is not bool)
    ]
    if ill_typed:
        raise BenchValidationError(f"ill-typed bench keys: {ill_typed}")
    wall = document["wall_seconds"]
    if wall < 0:
        raise BenchValidationError("wall_seconds must be >= 0")
    throughput = _throughput(document["makespan_cycles"], wall)
    if not math.isclose(
        document["cycles_per_wall_second"], throughput, rel_tol=1e-9
    ):
        raise BenchValidationError(
            f"cycles_per_wall_second={document['cycles_per_wall_second']!r} "
            f"is not makespan_cycles / wall_seconds = {throughput!r}"
        )
    period = document["iteration_period_cycles"]
    if document["extra"].get("periodic") and not period > 0:
        raise BenchValidationError(
            f"periodic workload {document['name']!r} reports "
            f"iteration_period_cycles={period!r}; a periodic workload "
            f"must report its detected period (> 0)"
        )


def write_bench_json(directory, document: Dict[str, object]) -> Path:
    """Write ``BENCH_<name>.json`` under ``directory`` and return the path."""
    validate_bench(document)
    target_dir = Path(directory)
    target_dir.mkdir(parents=True, exist_ok=True)
    path = target_dir / f"BENCH_{document['name']}.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path
