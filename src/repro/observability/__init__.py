"""Observability: metrics, message logs, trace export, bench artefacts.

The measurement substrate of the reproduction.  A simulated run can be
instrumented end-to-end (``SpiSystem.run(..., metrics=True)``): the
simulator kernel, every PE sequencer, the data transports and the SPI
channels record into one :class:`ObservabilityHub`, and the results
export as

* a flat, versioned **metrics JSON** (:func:`build_metrics_document`,
  gated by :func:`validate_metrics`),
* a Chrome/Perfetto **trace JSON** (:func:`chrome_trace`) with one
  track per PE and async arrows for inter-PE messages,
* per-benchmark **BENCH_<name>.json** perf documents
  (:func:`write_bench_json`) consumed by CI.

The message log is a list of :class:`MessageRecord` NamedTuples; the
hub's link meters are replayed from it when its registry is read.
"""

from repro.observability.bench import (
    BENCH_SCHEMA,
    BenchValidationError,
    bench_document,
    validate_bench,
    write_bench_json,
)
from repro.observability.collector import MessageRecord, ObservabilityHub
from repro.observability.exporters import (
    MetricsValidationError,
    build_metrics_document,
    validate_metrics,
    write_json,
)
from repro.observability.metrics import (
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.perfetto import (
    INTERCONNECT_PID,
    PE_PID,
    chrome_trace,
)

__all__ = [
    "BENCH_SCHEMA",
    "BenchValidationError",
    "METRICS_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "INTERCONNECT_PID",
    "MessageRecord",
    "MetricsRegistry",
    "MetricsValidationError",
    "ObservabilityHub",
    "PE_PID",
    "bench_document",
    "build_metrics_document",
    "chrome_trace",
    "validate_bench",
    "validate_metrics",
    "write_bench_json",
    "write_json",
]
