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
and, for SPI, the message log, plus the run totals both layers report:
the iteration period (its ``repr``), data and ack (control) message
counts, payload, header, ack and wire bytes, and a digest of the buffer
and FIFO high-water maps.

The records cover the three 50-seed conformance campaigns: the default
generator, collective connections and batched heterogeneous platforms.
Three seeded suites of random analysis graphs add the corners the
campaigns rarely reach: MCM and the self-timed trace of arbitrary timed
graphs (deadlocks, self-loops, parallel edges), and redundancy pruning
and full resynchronization of random synchronization graphs.  The
paper's own experiments are pinned too: every fig. 6 point (actor D,
steady state off and auto) and fig. 7 point (the particle filter) with
makespan, period, totals and per-PE, message-log and metrics-document
digests (and the trace rows and Chrome trace when steady state is off),
the coefficients and residuals of
fig. 6, the estimates of fig. 7 as float64 bytes with a digest of the
weight sums its PEs exchange, the figure-2
pipeline's coefficients and Huffman bitstream, and the Table 1/2
resource vectors.
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

import numpy as np
import pytest

from repro.apps.lpc import (
    build_adc_graph,
    build_parallel_error_graph,
    frame_stream,
)
from repro.apps.particle_filter import (
    CrackGrowthModel,
    build_particle_filter_graph,
    simulate_crack_history,
)
from repro.conformance import GraphShape, build_case, generate_spec
from repro.conformance.spec import GraphSpec
from repro.dataflow.hsdf import hsdf_expand
from repro.mapping import (
    Partition,
    maximum_cycle_mean_result,
    resynchronize,
    simulate_selftimed,
)
from repro.mapping.resync import SyncGraphSnapshot
from repro.mpi.baseline import MpiSystem
from repro.observability import chrome_trace
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

#: the paper's figure sweeps: the point grids perfbench's fig6_lpc and
#: fig7_pf workloads run, at the full-mode iteration counts of
#: benchmarks/bench_fig6_lpc_scaling.py and bench_fig7_pf_scaling.py
FIG6_SIZES = (128, 256, 512)
FIG6_PES = (1, 2, 3, 4)
FIG6_ITERATIONS = 5
FIG6_STEADY_STATE = ("off", "auto")
FIG7_PARTICLES = (50, 100, 200, 300)
FIG7_PES = (1, 2)
FIG7_ITERATIONS = 6
LPC_ORDER = 8
#: the figure-2 pipeline that produces the Huffman bitstream, split over
#: three PEs so its tokens cross SPI channels
ADC_ASSIGNMENT = {"A": 0, "B": 0, "C": 1, "D": 2, "E": 2}


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


def _totals(result) -> Dict:
    """The run totals every layer reports through ``RunResult``."""
    return {
        "period": repr(result.iteration_period_cycles),
        "data_messages": result.data_messages,
        "ack_messages": result.ack_messages,
        "payload_bytes": result.payload_bytes,
        "header_bytes": result.header_bytes,
        "ack_bytes": result.ack_bytes,
        "wire_bytes": result.wire_bytes,
        "high_water": _digest(
            [result.buffer_high_water, result.fifo_high_water]
        ),
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
            [list(message) for message in result.message_log]
        ),
    }
    record.update(_observables(simulators, result, result.trace.rows))
    record.update(_totals(result))
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
    record.update(_totals(result))
    return record


def _float_bytes(values) -> str:
    return np.asarray(values, dtype=np.float64).tobytes().hex()


def _float_digest(arrays) -> str:
    return _digest([_float_bytes(a) for a in arrays])


def _tap_inputs(graph, actor_names, port: str) -> List:
    """Record every token block ``port`` of the named actors consumes.

    Wraps the kernels before compilation (the lowered graph shares them
    by reference); returns the list the blocks are appended to.
    """
    blocks: List = []
    for name in actor_names:
        actor = graph.get_actor(name)
        kernel = actor.kernel

        def tapped(firing_index, inputs, kernel=kernel, name=name):
            blocks.append((name, firing_index, list(inputs[port])))
            return kernel(firing_index, inputs)

        actor.kernel = tapped
    return blocks


def _tap_partial_sums(graph, n_pes: int) -> List:
    """Record the weight sums each PE's S1 actor broadcasts, in order."""
    sums: List = []
    for pe in range(n_pes):
        actor = graph.get_actor(f"S1_{pe}")
        kernel = actor.kernel

        def tapped(firing_index, inputs, kernel=kernel, pe=pe):
            outputs = kernel(firing_index, inputs)
            sums.extend(
                (pe, firing_index, port, block)
                for port, block in sorted(outputs.items())
                if port.startswith("wsum")
            )
            return outputs

        actor.kernel = tapped
    return sums


def _figure_run(result, trace: bool) -> Dict:
    """Makespan, period, totals, per-PE stats and message log of a run,
    plus digests of its metrics document and, with a trace, its Chrome
    trace."""
    entry = {
        "cycles": result.cycles,
        "resync_messages": result.resync_messages,
        "pes": _observables([], result, [])["pes"],
        "messages": _digest(
            [list(message) for message in result.message_log]
        ),
        "steady_state": [
            result.steady_state_detected_at,
            result.extrapolated_iterations,
        ],
        "trace": _digest([list(row) for row in result.trace.rows])
        if trace
        else None,
        "chrome_trace": _digest(chrome_trace(result.trace, result.message_log))
        if trace
        else None,
        "metrics": _digest(result.metrics),
    }
    entry.update(_totals(result))
    return entry


def fig6_record(size: int, n: int) -> Dict:
    """One fig. 6 point: actor D over ``n`` PEs, per steady-state mode."""
    frames = frame_stream(total_samples=2 * size, frame_size=size)
    record = {}
    for mode in FIG6_STEADY_STATE:
        app = build_parallel_error_graph(frames, order=LPC_ORDER, n_units=n)
        coefs = _tap_inputs(app.graph, [f"D_{u}" for u in range(n)], "coefs")
        trace = mode == "off"
        result = SpiSystem.compile(app.graph, app.partition).run(
            iterations=FIG6_ITERATIONS,
            trace=trace,
            metrics=True,
            steady_state=mode,
        )
        entry = _figure_run(result, trace)
        entry["coefficients"] = _float_digest(
            block for _, _, block in sorted(coefs, key=lambda c: c[:2])
        )
        # a warped run fires only its simulated iterations' kernels
        entry["errors"] = _float_digest(
            piece["errors"]
            for piece in sorted(
                app.collected, key=lambda p: (p["iteration"], p["unit"])
            )
        )
        record[mode] = entry
    return record


def adc_record(size: int) -> Dict:
    """The figure-2 pipeline on one fig. 6 frame size: coefficients and
    the Huffman bitstream it compresses the residual into."""
    frames = frame_stream(total_samples=2 * size, frame_size=size)
    adc = build_adc_graph(frames, order=LPC_ORDER)
    models = _tap_inputs(adc.graph, ["D"], "model")
    partition = Partition.manual(adc.graph, ADC_ASSIGNMENT)
    result = SpiSystem.compile(adc.graph, partition).run(
        iterations=FIG6_ITERATIONS
    )
    return {
        "cycles": result.cycles,
        "period": repr(result.iteration_period_cycles),
        "coefficients": _float_digest(
            block[0]["coefficients"] for _, _, block in models
        ),
        "bitstream": _digest(
            [
                [r["bits"], sorted(r["codebook"].items()), r["n_samples"]]
                for r in adc.encoder.compressed
            ]
        ),
    }


def fig7_record(particles: int, n: int) -> Dict:
    """One fig. 7 point: the particle filter over ``n`` PEs."""
    model = CrackGrowthModel()
    _, observations = simulate_crack_history(
        model, steps=max(4, FIG7_ITERATIONS)
    )
    app = build_particle_filter_graph(
        model, observations, n_particles=particles, n_pes=n
    )
    sums = _tap_partial_sums(app.graph, n)
    result = SpiSystem.compile(app.graph, app.partition).run(
        iterations=FIG7_ITERATIONS, trace=True, metrics=True
    )
    entry = _figure_run(result, trace=True)
    entry["estimates"] = _float_bytes(app.estimates())
    entry["partial_sums"] = _digest(
        [[pe, k, port, _float_bytes(block)] for pe, k, port, block in sums]
    )
    return entry


def table_records() -> Dict:
    """Tables 1 and 2: full-system and SPI-library resource vectors."""
    frames = frame_stream(total_samples=2 * 256, frame_size=256)
    lpc = build_parallel_error_graph(frames, order=LPC_ORDER, n_units=4)
    model = CrackGrowthModel()
    _, observations = simulate_crack_history(model, steps=8, seed=7)
    pf = build_particle_filter_graph(
        model, observations, n_particles=200, n_pes=2
    )
    records = {}
    for name, app in (("table1", lpc), ("table2", pf)):
        report = SpiSystem.compile(app.graph, app.partition).fpga_report()
        records[name] = {
            "full_system": list(astuple(report.full_system)),
            "spi_library": list(astuple(report.spi_library)),
        }
    return records


def _fig6_points() -> List[Tuple[int, int]]:
    return [(size, n) for size in FIG6_SIZES for n in FIG6_PES]


def _fig7_points() -> List[Tuple[int, int]]:
    return [(p, n) for p in FIG7_PARTICLES for n in FIG7_PES]


def _point_key(x: int, n: int) -> str:
    return f"{x}x{n}"


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
        _, removed, _ = SyncGraphSnapshot(graph).prune()
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
        "figures": {
            "fig6": {
                _point_key(size, n): fig6_record(size, n)
                for size, n in _fig6_points()
            },
            "adc": {str(size): adc_record(size) for size in FIG6_SIZES},
            "fig7": {
                _point_key(p, n): fig7_record(p, n) for p, n in _fig7_points()
            },
            "tables": table_records(),
        },
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
    figures = document["figures"]
    assert sorted(figures["fig6"]) == sorted(
        _point_key(*point) for point in _fig6_points()
    )
    assert sorted(figures["fig7"]) == sorted(
        _point_key(*point) for point in _fig7_points()
    )
    assert sorted(figures["adc"]) == sorted(map(str, FIG6_SIZES))
    assert sorted(figures["tables"]) == ["table1", "table2"]


@pytest.mark.parametrize("campaign,seed", _cases())
def test_record_matches_golden(campaign, seed):
    assert record(campaign, seed) == _load()["campaigns"][campaign][str(seed)]


@pytest.mark.parametrize("suite", sorted(RANDOM_SUITES))
def test_random_suite_matches_golden(suite):
    assert random_records(suite) == _load()["random"][suite]


@pytest.mark.parametrize("size,n", _fig6_points())
def test_fig6_point_matches_golden(size, n):
    golden = _load()["figures"]["fig6"][_point_key(size, n)]
    assert fig6_record(size, n) == golden


@pytest.mark.parametrize("size", FIG6_SIZES)
def test_adc_pipeline_matches_golden(size):
    assert adc_record(size) == _load()["figures"]["adc"][str(size)]


@pytest.mark.parametrize("particles,n", _fig7_points())
def test_fig7_point_matches_golden(particles, n):
    golden = _load()["figures"]["fig7"][_point_key(particles, n)]
    assert fig7_record(particles, n) == golden


def test_table_resources_match_golden():
    assert table_records() == _load()["figures"]["tables"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(render(build_document()))
    print(f"wrote {GOLDEN_PATH}")
