"""Golden records of the analysis and simulation layers.

One record per conformance seed pins what every layer computes for that
graph: the exact maximum cycle mean (integer execution-time and delay
sums plus the critical-cycle witness), the edges resynchronization
removes and adds, a canonical hash of the HSDF expansion, and the SPI
and MPI runs (makespan, message counts and a digest of every token
stream, simulated with the lost-wakeup audit armed).  Each run record
also digests the run's observables: the kernel counters (events, parks,
wakeups, spurious wakeups), the per-PE busy, firing and blocked cycles
with their per-task attribution and batching counters, every trace row
and, for SPI, the message log.

The records cover the three 50-seed conformance campaigns: the default
generator, collective connections and batched heterogeneous platforms.
Three seeded suites of random analysis graphs add the corners the
campaigns rarely reach: MCM and the self-timed trace of arbitrary timed
graphs (deadlocks, self-loops, parallel edges), and redundancy pruning
and full resynchronization of random synchronization graphs.
``golden_records.json`` next to this module holds the committed values;
regenerate it with::

    PYTHONPATH=src python -m tests.golden.test_golden

When the file was first written, every record was re-derived with
independent engines (a Lawler binary-search MCM, per-token HSDF
enumeration, resynchronization over full min-delay recomputes, a
broadcast-retry wakeup kernel and a calendar event queue) and the writer
refused to write unless they all agreed.  The writer must reproduce the
file byte for byte; any difference is a change in computed behaviour.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import random
from dataclasses import astuple, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest

from repro.conformance import GraphShape, build_case, generate_spec
from repro.conformance.spec import GraphSpec
from repro.dataflow.hsdf import hsdf_expand
from repro.mapping import (
    maximum_cycle_mean_result,
    remove_redundant_synchronizations,
    resynchronize,
    simulate_selftimed,
)
from repro.mpi.baseline import MpiSystem
from repro.platform.simulator import PESequencer, Simulator
from repro.platform.trace import TraceRecorder
from repro.spi import SpiSystem
from tests.conftest import build_random_sync_graph, build_random_timed_graph

GOLDEN_PATH = Path(__file__).with_name("golden_records.json")
SEED_COUNT = 50
MAX_CYCLES = 10_000_000
#: requested blocking factor of the batched campaign (as in
#: tests/conformance/test_batch_equivalence.py)
REQUESTED_BATCH = 4


def _default_spec(seed: int) -> GraphSpec:
    return generate_spec(seed)


def _collective_spec(seed: int) -> GraphSpec:
    return generate_spec(seed, GraphShape(collective_prob=0.7))


def _batched_spec(seed: int) -> GraphSpec:
    spec = generate_spec(seed)
    return replace(
        spec,
        accelerators=tuple(range(spec.n_pes)),
        batch=REQUESTED_BATCH,
    )


#: campaign name -> (spec builder, simulated iterations)
CAMPAIGNS = {
    "default": (_default_spec, 4),
    "collective": (_collective_spec, 4),
    "batched": (_batched_spec, 6),
}

#: random suites: name -> (generator seed, graph count)
RANDOM_SUITES = {
    "mcm": (2024, 150),
    "prune": (17, 30),
    "resync": (23, 12),
}
#: iterations of the self-timed trace pinned for each random timed graph
SELFTIMED_ITERATIONS = 15


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def hsdf_hash(graph) -> str:
    """Order-independent hash of an HSDF expansion's precedence edges."""
    actors = sorted(
        (a.name, a.params["origin"], a.params["invocation"])
        for a in graph.actors
    )
    edges = sorted(
        (
            e.src_actor.name,
            e.snk_actor.name,
            e.source.name,
            e.sink.name,
            e.delay,
            e.name,
        )
        for e in graph.edges
    )
    return _digest([actors, edges])


def _edges(edges) -> List[List[object]]:
    return [[e.src, e.snk, e.delay, e.kind] for e in edges]


@contextlib.contextmanager
def _observed_run():
    """Capture the simulators a run drives and trace every sequencer.

    Yields ``(simulators, recorder)``: every :class:`Simulator` whose
    ``run`` was called, and one :class:`TraceRecorder` handed to each
    sequencer built without one (the MPI baseline takes no trace flag).
    """
    simulators: List[Simulator] = []
    recorder = TraceRecorder()
    run, init = Simulator.run, PESequencer.__init__

    def capturing_run(self, *args, **kwargs):
        simulators.append(self)
        return run(self, *args, **kwargs)

    def tracing_init(self, sim, pe, program, iterations, trace=None):
        init(self, sim, pe, program, iterations,
             trace=recorder if trace is None else trace)

    Simulator.run, PESequencer.__init__ = capturing_run, tracing_init
    try:
        yield simulators, recorder
    finally:
        Simulator.run, PESequencer.__init__ = run, init


def _observables(simulators, result, rows) -> Dict:
    """Digests of a run's kernel counters, per-PE stats and trace rows."""
    return {
        "kernel": _digest(
            [
                [
                    sim.events_processed,
                    sim.parks,
                    sim.targeted_wakeups,
                    sim.spurious_wakeups,
                ]
                for sim in simulators
            ]
        ),
        "pes": _digest(
            [
                [
                    pe.index,
                    pe.busy_cycles,
                    pe.firings,
                    pe.blocked_events,
                    pe.blocked_cycles,
                    pe.blocked_by_task,
                    pe.batched_firings,
                    pe.batch_dispatches,
                    pe.amortized_dispatch_cycles_saved,
                ]
                for pe in result.pe_stats
            ]
        ),
        "trace": _digest([list(row) for row in rows]),
    }


def _spi_record(system, case, iterations: int) -> Dict:
    case.tap.begin("spi")
    with _observed_run() as (simulators, _):
        result = system.run(
            iterations=iterations,
            max_cycles=MAX_CYCLES,
            check_lost_wakeups=True,
            trace=True,
            metrics=True,
        )
    record = {
        "cycles": result.cycles,
        "data_messages": result.data_messages,
        "ack_messages": result.ack_messages,
        "resync_messages": result.resync_messages,
        "streams": _digest(case.tap.streams("spi")),
        "messages": _digest(
            [list(astuple(message)) for message in result.message_log]
        ),
    }
    record.update(_observables(simulators, result, result.trace.rows))
    return record


def _mpi_record(case, iterations: int) -> Dict:
    system = MpiSystem.compile(case.graph, case.partition)
    case.tap.begin("mpi")
    with _observed_run() as (simulators, recorder):
        result = system.run(
            iterations=iterations,
            max_cycles=MAX_CYCLES,
            check_lost_wakeups=True,
        )
    record = {
        "cycles": result.cycles,
        "streams": _digest(case.tap.streams("mpi")),
    }
    record.update(_observables(simulators, result, recorder.rows))
    return record


def _resync_record(result) -> Optional[Dict]:
    if result is None:
        return None
    return {"removed": _edges(result.removed), "added": _edges(result.added)}


def _mcm_record(result) -> Dict:
    return {
        "total_cycles": result.total_cycles,
        "total_delay": result.total_delay,
        "cycle": list(result.cycle),
    }


def record(campaign: str, seed: int) -> Dict:
    """The golden record of one campaign seed, as stored in the file."""
    build_spec, iterations = CAMPAIGNS[campaign]
    case = build_case(build_spec(seed))
    system = SpiSystem.compile(case.graph, case.partition)
    return {
        "mcm": _mcm_record(system.mcm_result()),
        "resync": _resync_record(system.resync_result),
        "hsdf": hsdf_hash(hsdf_expand(system.insertion.graph)),
        "spi": _spi_record(system, case, iterations),
        "mpi": _mpi_record(case, iterations),
    }


def _selftimed_digest(graph) -> Optional[str]:
    if graph.has_zero_delay_cycle():
        return None
    trace = simulate_selftimed(graph, SELFTIMED_ITERATIONS)
    rows = sorted(
        [name, k, start, trace.end[(name, k)]]
        for (name, k), start in trace.start.items()
    )
    return _digest(rows)


def _random_graphs(suite: str):
    seed, count = RANDOM_SUITES[suite]
    rng = random.Random(seed)
    if suite == "mcm":
        return [build_random_timed_graph(rng) for _ in range(count)]
    return [build_random_sync_graph(rng, trial) for trial in range(count)]


def _random_record(suite: str, graph) -> Dict:
    if suite == "mcm":
        entry = _mcm_record(maximum_cycle_mean_result(graph))
        entry["selftimed"] = _selftimed_digest(graph)
        return entry
    if suite == "prune":
        _, removed = remove_redundant_synchronizations(graph)
        return {"removed": _edges(removed)}
    result = resynchronize(graph)
    return {
        "removed": _edges(result.removed),
        "added": _edges(result.added),
        "cost_before": result.cost_before,
        "cost_after": result.cost_after,
    }


def random_records(suite: str) -> List[Dict]:
    """The golden records of one random suite, in generation order."""
    return [_random_record(suite, graph) for graph in _random_graphs(suite)]


def build_document() -> Dict:
    return {
        "campaigns": {
            name: {
                str(seed): record(name, seed) for seed in range(SEED_COUNT)
            }
            for name in CAMPAIGNS
        },
        "random": {suite: random_records(suite) for suite in RANDOM_SUITES},
    }


def render(document: Dict) -> str:
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


@functools.lru_cache(maxsize=None)
def _load() -> Dict:
    return json.loads(GOLDEN_PATH.read_text())


def _cases() -> List[Tuple[str, int]]:
    return [(name, seed) for name in CAMPAIGNS for seed in range(SEED_COUNT)]


def test_golden_file_covers_every_campaign_seed_and_suite():
    document = _load()
    assert sorted(document["campaigns"]) == sorted(CAMPAIGNS)
    for name in CAMPAIGNS:
        seeds = sorted(map(int, document["campaigns"][name]))
        assert seeds == list(range(SEED_COUNT))
    for suite, (_, count) in RANDOM_SUITES.items():
        assert len(document["random"][suite]) == count


@pytest.mark.parametrize("campaign,seed", _cases())
def test_record_matches_golden(campaign, seed):
    assert record(campaign, seed) == _load()["campaigns"][campaign][str(seed)]


@pytest.mark.parametrize("suite", sorted(RANDOM_SUITES))
def test_random_suite_matches_golden(suite):
    assert random_records(suite) == _load()["random"][suite]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(render(build_document()))
    print(f"wrote {GOLDEN_PATH}")
