"""Internal-consistency checks of the benchmark's own result document.

These reject a document that cannot be right whatever the program did:
a throughput that is not units over wall times the host factor, a span
shorter than its children, a traced run whose unit spans miss the work,
or a wall time too small for the simulation it reports (a timed region
that did not contain the work).
"""

from __future__ import annotations

from typing import Dict, List

#: host nanoseconds below which no simulated PE firing can complete in
#: this pure-Python simulator (measured: several microseconds each)
MIN_NS_PER_FIRING = 200
#: likewise for one discrete event of the kernel loop
MIN_NS_PER_EVENT = 50
#: share of the traced timed wall that unit spans must cover
MIN_UNIT_COVERAGE = 0.90


class ResultError(ValueError):
    """The result document contradicts itself."""


def check_result(doc: Dict[str, object]) -> None:
    """Raise :class:`ResultError` listing every inconsistency found."""
    problems: List[str] = []
    for segment in doc["segments"]:
        label = segment["label"]
        units, wall = segment["units"], segment["wall_s"]
        if units < 1 or wall <= 0:
            problems.append(f"{label}: {units} units in {wall} s")
            continue
        factor = segment["host_factor"]
        if not factor > 0:
            problems.append(f"{label}: host factor {factor}")
            continue
        scaled = units / wall * factor
        if abs(segment["units_per_s"] - scaled) > 1e-9 * scaled:
            problems.append(
                f"{label}: units_per_s {segment['units_per_s']} != "
                f"{units} units / {wall} s x host factor {factor}"
            )
        floor = segment["sim_firings"] * MIN_NS_PER_FIRING * 1e-9
        if wall < floor:
            problems.append(
                f"{label}: {wall} s is implausibly small for "
                f"{segment['sim_firings']} simulated firings"
            )
    traced = doc.get("traced")
    if traced is not None:
        problems.extend(_check_spans(traced["spans"]))
        if traced["unit_coverage"] < MIN_UNIT_COVERAGE:
            problems.append(
                f"unit spans cover {traced['unit_coverage']:.3f} of the "
                f"traced wall (< {MIN_UNIT_COVERAGE})"
            )
        kernel_floor = traced["events"] * MIN_NS_PER_EVENT * 1e-9
        if traced["kernel_wall_s"] < kernel_floor:
            problems.append(
                f"{traced['kernel_wall_s']} s of kernel time is implausibly "
                f"small for {traced['events']} events"
            )
    if problems:
        raise ResultError("; ".join(problems))


def _check_spans(spans: List[list]) -> List[str]:
    """Children must fit in their parent, both as recorded and as charged."""
    problems: List[str] = []
    children = [0] * len(spans)
    for name, start, end, parent, _unit, child_ns in spans:
        if end < start or child_ns > end - start:
            problems.append(
                f"span {name!r}: children {child_ns} ns exceed its "
                f"{end - start} ns"
            )
        if parent >= 0:
            children[parent] += end - start
    for index, (name, start, end, *_rest) in enumerate(spans):
        if children[index] > end - start:
            problems.append(
                f"span {name!r}: recorded children {children[index]} ns "
                f"exceed its {end - start} ns"
            )
        if len(problems) > 5:
            break
    return problems
