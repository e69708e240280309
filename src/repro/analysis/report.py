"""Table and series renderers for the experiment harness.

The benchmarks print the same *shapes* the paper reports: figure 6/7 are
series of execution time against a swept parameter (one series per PE
count), tables 1/2 are resource-utilisation tables.  This module holds
the shared ASCII/CSV rendering so every bench target reports uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Union

__all__ = [
    "Series",
    "Figure",
    "render_table",
    "render_metrics_summary",
]

Number = Union[int, float]


@dataclass
class Series:
    """One labelled curve of a figure (e.g. ``n=2``)."""

    label: str
    x: List[Number] = field(default_factory=list)
    y: List[Number] = field(default_factory=list)

    def add(self, x: Number, y: Number) -> None:
        self.x.append(x)
        self.y.append(y)

    def validate(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"series {self.label!r}: {len(self.x)} x values vs "
                f"{len(self.y)} y values"
            )


@dataclass
class Figure:
    """A reproduced figure: multiple series over a shared x axis."""

    title: str
    x_label: str
    y_label: str
    series: List[Series] = field(default_factory=list)

    def add_series(self, label: str) -> Series:
        series = Series(label)
        self.series.append(series)
        return series

    def to_csv(self) -> str:
        """Wide CSV: one x column, one column per series."""
        for series in self.series:
            series.validate()
        xs = sorted({x for series in self.series for x in series.x})
        header = [self.x_label] + [s.label for s in self.series]
        lines = [",".join(header)]
        lookup = [
            {x: y for x, y in zip(s.x, s.y)} for s in self.series
        ]
        for x in xs:
            row = [str(x)]
            for table in lookup:
                value = table.get(x)
                row.append("" if value is None else f"{value:.4f}")
            lines.append(",".join(row))
        return "\n".join(lines)

    def render(self, width: int = 12) -> str:
        """ASCII rendering: the numbers of the figure as a table."""
        for series in self.series:
            series.validate()
        xs = sorted({x for series in self.series for x in series.x})
        header = [self.x_label] + [s.label for s in self.series]
        rows: List[List[str]] = []
        lookup = [
            {x: y for x, y in zip(s.x, s.y)} for s in self.series
        ]
        for x in xs:
            row = [f"{x}"]
            for table in lookup:
                value = table.get(x)
                row.append("-" if value is None else f"{value:.2f}")
            rows.append(row)
        return "\n".join(
            [
                self.title,
                f"({self.y_label})",
                render_table(header, rows),
            ]
        )


def render_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width ASCII table."""
    columns = len(header)
    for row in rows:
        if len(row) != columns:
            raise ValueError(
                f"row {row!r} has {len(row)} cells, header has {columns}"
            )
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows))
        if rows
        else len(str(header[i]))
        for i in range(columns)
    ]
    lines = [
        "  ".join(str(h).ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_metrics_summary(document: Dict) -> str:
    """Human summary of one run's metrics JSON document.

    Takes the document produced by :func:`repro.observability.exporters
    .build_metrics_document` (``RunResult.metrics``) and renders the
    per-PE and per-channel views as fixed-width tables, followed by the
    transport and simulator-kernel counters — the quick answer to "which
    channel stalled, and was it data or synchronization traffic".
    """
    run = document["run"]
    lines: List[str] = [
        f"run: {run['cycles']} cycles, {run['iterations']} iteration(s), "
        f"period {run['iteration_period_cycles']:.1f} cycles "
        f"(MCM bound {run['mcm_bound_cycles']:.1f})",
    ]
    witness = run.get("critical_cycle") or {}
    if witness.get("tasks"):
        lines.append(
            f"critical cycle: {' -> '.join(witness['tasks'])} "
            f"({witness['total_cycles']} cycles / "
            f"{witness['total_delay']} delay)"
        )
    lines.extend(["", "processing elements:"])
    pe_rows = []
    for pe in document["pes"]:
        blockers = pe["blocked_by_task"]
        top = (
            max(blockers, key=blockers.get) if blockers else "-"
        )
        pe_rows.append(
            [
                pe["name"],
                str(pe["busy_cycles"]),
                str(pe["blocked_cycles"]),
                f"{pe['utilization'] * 100:.1f}%",
                str(pe["firings"]),
                top,
            ]
        )
    lines.append(
        render_table(
            ["PE", "busy", "blocked", "util", "firings", "top blocker"],
            pe_rows,
        )
    )
    if document["channels"]:
        lines += ["", "channels:"]
        channel_rows = []
        for channel in document["channels"]:
            channel_rows.append(
                [
                    channel["name"],
                    channel["protocol"],
                    f"PE{channel['src_pe']}->PE{channel['dst_pe']}",
                    f"{channel['data_messages']}/{channel['ack_messages']}",
                    (
                        f"{channel['occupancy_high_water_messages']}"
                        f"/{channel['bound_messages']}"
                    ),
                    str(channel["full_stall_cycles"]),
                    str(channel["empty_stall_cycles"]),
                ]
            )
        lines.append(
            render_table(
                [
                    "channel",
                    "protocol",
                    "route",
                    "msgs d/a",
                    "occ hw/B(e)",
                    "full stall",
                    "empty stall",
                ],
                channel_rows,
            )
        )
    transport = document["transport"]
    split = document["wire_byte_split"]
    split_text = (
        ", ".join(f"{kind}={nbytes}B" for kind, nbytes in sorted(split.items()))
        or "none"
    )
    sim = document["simulator"]
    lines += [
        "",
        f"transport: {transport['type']}, {transport['messages']} msg, "
        f"{transport['bytes']}B",
        f"wire bytes by kind: {split_text}",
    ]
    if transport.get("collective_messages", 0):
        lines.append(
            f"collectives: {transport['collective_messages']} wire "
            f"transfer(s) fanned out to "
            f"{transport['fan_out_deliveries']} deliveries, "
            f"{transport['wire_bytes_saved']}B saved by payload sharing"
        )
    if sim.get("batch_dispatches", 0):
        lines.append(
            f"batching: blocking factor "
            f"{document['run'].get('batch', 1)}, "
            f"{sim['batched_firings']} firing(s) in "
            f"{sim['batch_dispatches']} batched dispatch(es), "
            f"{sim.get('amortized_dispatch_cycles_saved', 0)} dispatch "
            f"cycle(s) amortized away"
        )
    lines += [
        f"simulator: {sim['events_processed']} events, {sim['parks']} parks",
        f"wakeups: {sim.get('targeted_wakeups', 0)} targeted, "
        f"{sim.get('spurious_wakeups', 0)} spurious",
    ]
    detected = sim.get("steady_state_detected_at")
    if detected is not None:
        lines.append(
            f"steady state: detected at iteration {detected}, "
            f"{sim.get('extrapolated_iterations', 0)} iteration(s) "
            f"extrapolated"
        )
    return "\n".join(lines)
