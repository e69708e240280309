"""Reporting and derived metrics for the experiment harness."""

from repro.analysis.metrics import (
    first_output_latency,
    pipeline_fill_latency,
    speedups,
)
from repro.analysis.report import (
    Figure,
    Series,
    render_metrics_summary,
    render_table,
)

__all__ = [
    "first_output_latency", "pipeline_fill_latency", "speedups",
    "Figure", "Series", "render_metrics_summary", "render_table",
]
