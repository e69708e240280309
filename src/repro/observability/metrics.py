"""Metric primitives: counters, histograms, and their registry.

The observability layer threads one :class:`MetricsRegistry` through a
simulated execution — the simulator kernel, the PE sequencers, the data
transports and the SPI channels all record into it.  Metrics are cheap
plain-Python accumulators (no locking: the discrete-event simulator is
single-threaded by construction) addressed by a name plus a frozen label
set, mirroring the Prometheus data model so the flat JSON export stays
familiar::

    registry.counter("transport.messages", channel="e0").inc()
    registry.histogram("transport.queueing_cycles").observe(17)

``registry.as_dict()`` renders everything into the documented metrics
JSON shape (see :data:`METRICS_SCHEMA`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "METRICS_SCHEMA",
    "Counter",
    "Histogram",
    "MetricsRegistry",
]

#: schema identifier stamped into every metrics JSON document
METRICS_SCHEMA = "repro.metrics/1"

LabelSet = Tuple[Tuple[str, str], ...]


def _freeze_labels(labels: Dict[str, object]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """A monotonically increasing count (events, messages, bytes)."""

    name: str
    labels: LabelSet = ()
    value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only move forward")
        self.value += amount

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": "counter",
            "labels": dict(self.labels),
            "value": self.value,
        }


@dataclass
class Histogram:
    """Summary statistics of an observed distribution (delays, sizes)."""

    name: str
    labels: LabelSet = ()
    count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": "histogram",
            "labels": dict(self.labels),
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
        }


@dataclass
class MetricsRegistry:
    """All metrics of one run, addressed by (name, labels)."""

    _metrics: Dict[Tuple[str, str, LabelSet], object] = field(
        default_factory=dict
    )

    def _get(self, kind: str, factory, name: str, labels: Dict[str, object]):
        key = (kind, name, _freeze_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory(name=name, labels=key[2])
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get("counter", Counter, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._get("histogram", Histogram, name, labels)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def as_dict(self) -> Dict[str, object]:
        """Flat JSON-ready rendering of every registered metric."""
        entries: List[Dict[str, object]] = [
            metric.as_dict()
            for _, metric in sorted(
                self._metrics.items(), key=lambda item: item[0]
            )
        ]
        return {"schema": METRICS_SCHEMA, "metrics": entries}
