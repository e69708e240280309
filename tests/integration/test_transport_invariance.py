"""The transport model changes when messages arrive, never what a run
computes or how it is accounted.

For the three example applications of ``repro run`` (LPC, particle
filter, 3-stage chain) on several PE counts and every transport:

* the execution trace and the per-PE accounting agree: each PE's trace
  intervals are disjoint and sum to its ``busy_cycles``, and the trace
  ends no later than the run (which may end on a last message arrival);
* the application outputs, the data message count and the payload bytes
  are the same on every transport;
* running one compiled system twice gives the same cycles and per-PE
  statistics (each run starts from fresh accounting) for the apps whose
  timing does not depend on data; the particle filter's does, and its
  particles carry over from one run to the next.
"""

import numpy as np
import pytest

from repro.service.operations import build_app_system
from repro.spi import SpiConfig, SpiSystem

TRANSPORTS = ("p2p", "shared_bus", "ordered_bus")
ITERATIONS = {"lpc": 2, "pf": 4, "chain": 4}
CASES = [
    ("lpc", 1), ("lpc", 2), ("lpc", 4),
    ("pf", 1), ("pf", 2),
    ("chain", 2), ("chain", 3),
]


def transports_for(pes):
    # the ordered bus needs an interprocessor channel to order
    return TRANSPORTS if pes > 1 else TRANSPORTS[:2]


def run_app(app, pes, transport, trace=False):
    system = build_app_system(app, pes, ITERATIONS[app])
    compiled = SpiSystem.compile(
        system.graph, system.partition, SpiConfig(transport=transport)
    )
    return system, compiled.run(iterations=ITERATIONS[app], trace=trace)


def outputs(app, system):
    if app == "lpc":
        return [system.assembled_errors(k, 256) for k in range(2)]
    if app == "pf":
        return list(system.estimates())
    return []


def pe_statistics(result):
    return [
        (pe.index, pe.busy_cycles, pe.firings, pe.blocked_cycles)
        for pe in result.pe_stats
    ]


@pytest.mark.parametrize(
    "app, pes, transport",
    [(app, pes, t) for app, pes in CASES for t in transports_for(pes)],
)
def test_trace_agrees_with_pe_accounting(app, pes, transport):
    _, result = run_app(app, pes, transport, trace=True)
    intervals = {}
    for event in result.trace.events:
        intervals.setdefault(event.pe, []).append((event.start, event.end))
    for pe in result.pe_stats:
        spans = sorted(intervals.get(pe.index, []))
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))
        assert sum(end - start for start, end in spans) == pe.busy_cycles
    assert set(intervals) <= {pe.index for pe in result.pe_stats}
    assert 0 < result.trace.makespan() <= result.cycles


@pytest.mark.parametrize("app, pes", CASES)
def test_results_do_not_depend_on_transport(app, pes):
    runs = [run_app(app, pes, t) for t in transports_for(pes)]
    (system, reference), others = runs[0], runs[1:]
    expected = outputs(app, system)
    if app != "chain":
        assert expected
    for other_system, result in others:
        got = outputs(app, other_system)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)
        assert result.data_messages == reference.data_messages
        assert result.payload_bytes == reference.payload_bytes


@pytest.mark.parametrize("app", ["chain", "lpc"])
def test_a_second_run_repeats_the_first(app):
    system = build_app_system(app, 2, ITERATIONS[app])
    compiled = SpiSystem.compile(system.graph, system.partition)
    first = compiled.run(iterations=ITERATIONS[app])
    second = compiled.run(iterations=ITERATIONS[app])
    assert second.cycles == first.cycles
    assert second.data_messages == first.data_messages
    assert pe_statistics(second) == pe_statistics(first)
