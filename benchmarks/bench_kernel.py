"""Kernel micro-benchmarks: the park/wakeup machinery under load.

Unlike the figure benches, this suite measures the *simulation kernel*
itself, not the modelled application: synthetic wide/deep/contended
dataflow graphs, run as FIRE ops over one ``LocalFifo`` per edge on
:class:`~repro.platform.simulator.Simulator`, stress the waitset
park/wakeup path the SPI and MPI runs take.

Workloads:

* **wide** — N independent producer->consumer PE pairs; a completion
  wakes only the pair's own consumer.
* **deep** — one N-stage pipeline.  Stages park often but only the
  immediate downstream neighbour can progress.
* **contended** — one producer feeding N consumers round-robin.  At any
  instant N-1 consumers are parked on queues that did *not* change, and
  each token wakes exactly one of them.

The exported ``BENCH_kernel.json`` additionally records the
steady-state sweep: the same applications at ``STEADY_ITERATIONS`` with
``steady_state="off"`` vs ``"auto"``.  fig6 declares
``timing_periodic`` actors, so auto locks onto the iteration period
and extrapolates the remaining iterations analytically; fig7's
resampling traffic is data-dependent, so auto must decline and stay
within noise of off.  ``check_bench.py`` gates both.

Every measurement repeats until it has ``MIN_RUNS`` runs and
``MIN_SECONDS`` of wall time in total (the off and auto runs of the
sweep alternate).  The reported walls and events/s are the best run's,
to shed scheduler noise; each entry also records its run count, median
and mean wall and spread ((slowest - fastest) / median).  The events/s
gate uses the mean rate scaled by the host factor (see :func:`_run`).
"""

import importlib.util
import statistics
import time
from pathlib import Path

import pytest

from conftest import QUICK, emit, save_bench_json
from repro.dataflow import DataflowGraph
from repro.platform import ProcessingElement, PESequencer, Simulator
from repro.spi import SpiSystem
from repro.spi.actors import LocalFifo, compute_op
from repro.spi.library import ComputeWiring

ITERATIONS = 40 if QUICK else 200
WIDE_PAIRS = 16 if QUICK else 32
DEEP_STAGES = 16 if QUICK else 32
CONTENDED_CONSUMERS = 24 if QUICK else 48
#: runs and total wall seconds every measurement reaches at least
MIN_RUNS = 3 if QUICK else 5
MIN_SECONDS = 0.2 if QUICK else 0.5
#: graph iterations for the steady-state off-vs-auto application sweep
STEADY_ITERATIONS = 60 if QUICK else 200
#: events / parks / targeted wakeups / spurious wakeups per workload
COUNTS = {
    "wide": (1448, 523, 523, 0) if QUICK else (13540, 5206, 5206, 0),
    "deep": (713, 16, 16, 0) if QUICK else (6665, 32, 32, 0),
    "contended": (2905, 960, 960, 0) if QUICK else (28849, 9600, 9600, 0),
}

# perfbench/ is not a package: load its host-speed calibration by path
_spec = importlib.util.spec_from_file_location(
    "calibration",
    Path(__file__).resolve().parents[1] / "perfbench" / "calibration.py",
)
calibration = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(calibration)


def _repeat(*measures):
    """Call every ``measure() -> (wall, result)`` in turn, round robin
    (so measurements compared with each other share the host's speed
    changes), until each has MIN_RUNS runs and MIN_SECONDS of wall
    time.  Returns, per measure, the best run's wall and result and the
    summary of all its walls."""
    runs = [[] for _ in measures]

    def short(done):
        return len(done) < MIN_RUNS or sum(w for w, _ in done) < MIN_SECONDS

    while any(short(done) for done in runs):
        for measure, done in zip(measures, runs):
            done.append(measure())
    summaries = []
    for done in runs:
        walls = sorted(wall for wall, _ in done)
        median = statistics.median(walls)
        best_wall, best = min(done, key=lambda run: run[0])
        summaries.append((best_wall, best, {
            "runs": len(walls),
            "median_wall_seconds": median,
            "mean_wall_seconds": statistics.fmean(walls),
            "spread": (walls[-1] - walls[0]) / median if median > 0 else 0.0,
        }))
    return summaries


def _run(build) -> dict:
    """Build and drain one synthetic graph; return kernel statistics.

    The host clock is sampled after every run: ``host_factor`` is the
    host's mean speed over the workload's runs (> 1: slower than the
    calibration reference).  ``check_bench.py`` compares
    ``mean_events_per_second`` (events over the mean wall, a time
    average over the same runs) scaled by it; the best run's
    ``events_per_second`` comes from the host's fastest moment, which
    a mean factor does not describe.
    """
    clock = calibration.HostClock()

    def measure():
        sim = Simulator()
        build(sim)
        for sequencer in sim.sequencers:
            sequencer.begin()
        start = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - start
        clock.sample(force=True)
        return wall, sim

    [(best_wall, stats, summary)] = _repeat(measure)
    events = stats.events_processed
    total_wakeups = stats.total_wakeups
    return {
        "wall_seconds": best_wall,
        "events_processed": events,
        "events_per_second": events / best_wall if best_wall > 0 else 0.0,
        "mean_events_per_second": events / summary["mean_wall_seconds"],
        "host_factor": clock.factor(),
        "parks": stats.parks,
        "spurious_wakeups": stats.spurious_wakeups,
        "total_wakeups": total_wakeups,
        "wakeups_per_event": total_wakeups / events if events else 0.0,
        "parks_per_event": stats.parks / events if events else 0.0,
        "spurious_fraction": (
            stats.spurious_wakeups / total_wakeups if total_wakeups else 0.0
        ),
        **summary,
    }


def _graph(name, edges, cycles):
    """A graph of rate-1 ``(source, sink)`` edges with the actors'
    ``cycles``, and one FIRE op per actor over a LocalFifo per edge."""
    graph = DataflowGraph(name)
    for actor, count in cycles.items():
        graph.actor(actor, cycles=count)
    for source, sink in edges:
        producer, consumer = graph.get_actor(source), graph.get_actor(sink)
        producer.add_output("o")
        consumer.add_input("i")
        graph.connect((producer, "o"), (consumer, "i"))
    fifos = {edge.edge_id: LocalFifo(edge) for edge in graph.edges}
    return {
        actor.name: compute_op(
            actor, ComputeWiring.of(graph, actor, fifos), fifos
        )
        for actor in graph.actors
    }


def _sequencer(sim, index, ops):
    pe = ProcessingElement(index=index, name=f"PE{index}")
    PESequencer(sim, pe, ops, iterations=ITERATIONS)


def build_wide(sim):
    """N independent producer->consumer pairs on 2N PEs."""
    cycles = {}
    for i in range(WIDE_PAIRS):
        cycles[f"prod{i}"] = 3 + i % 5
        cycles[f"cons{i}"] = 2 + i % 3
    ops = _graph(
        "wide", [(f"prod{i}", f"cons{i}") for i in range(WIDE_PAIRS)], cycles
    )
    for i in range(WIDE_PAIRS):
        _sequencer(sim, 2 * i, [ops[f"prod{i}"]])
        _sequencer(sim, 2 * i + 1, [ops[f"cons{i}"]])


def build_deep(sim):
    """One pipeline of N stages, each on its own PE."""
    stages = ["source"] + [f"stage{i}" for i in range(DEEP_STAGES)]
    ops = _graph(
        "deep", list(zip(stages, stages[1:])), dict.fromkeys(stages, 4)
    )
    for i, name in enumerate(stages):
        _sequencer(sim, i, [ops[name]])


def build_contended(sim):
    """One producer PE feeding N consumers round-robin (its program
    holds one single-output producer op per consumer): N-1 consumers
    are parked at any instant, and every token wakes exactly one."""
    n = CONTENDED_CONSUMERS
    cycles = {}
    for i in range(n):
        cycles[f"prod{i}"] = 1
        cycles[f"cons{i}"] = 2
    ops = _graph("contended", [(f"prod{i}", f"cons{i}") for i in range(n)], cycles)
    _sequencer(sim, 0, [ops[f"prod{i}"] for i in range(n)])
    for i in range(n):
        _sequencer(sim, i + 1, [ops[f"cons{i}"]])


WORKLOADS = {
    "wide": build_wide,
    "deep": build_deep,
    "contended": build_contended,
}


@pytest.fixture(scope="module")
def kernel_sweep():
    return {name: _run(build) for name, build in WORKLOADS.items()}


def test_kernel_report(kernel_sweep):
    rows = ["workload    events/s      wakeups/evt  spurious"]
    for name, stats in sorted(kernel_sweep.items()):
        rows.append(
            f"{name:<11} {stats['events_per_second']:>12.0f}"
            f"  {stats['wakeups_per_event']:>11.3f}"
            f"  {stats['spurious_fraction']:>8.3f}"
        )
    emit("Kernel park/wakeup workloads", "\n".join(rows))


def test_kernel_wakeups_are_never_spurious(kernel_sweep):
    """Every queue has exactly one consumer, so every wakeup a waitset
    delivers finds its guard passing."""
    for name, stats in kernel_sweep.items():
        assert stats["parks"] > 0, name
        assert stats["total_wakeups"] == stats["parks"], name
        assert stats["spurious_wakeups"] == 0, name


def test_kernel_counts_are_pinned(kernel_sweep):
    """Each workload's kernel counters, as the same graphs counted when
    they were built from hand-written task objects instead of FIRE ops."""
    for name, stats in kernel_sweep.items():
        assert (
            stats["events_processed"],
            stats["parks"],
            stats["total_wakeups"],
            stats["spurious_wakeups"],
        ) == COUNTS[name], name


def _fig6_system() -> SpiSystem:
    from repro.apps.lpc import build_parallel_error_graph, frame_stream

    size = 256 if QUICK else 512
    frames = frame_stream(total_samples=2 * size, frame_size=size)
    system = build_parallel_error_graph(frames, order=8, n_units=4)
    return SpiSystem.compile(system.graph, system.partition)


def _fig7_system() -> SpiSystem:
    from repro.apps.particle_filter import (
        CrackGrowthModel,
        simulate_crack_history,
    )
    from repro.apps.particle_filter import build_particle_filter_graph

    model = CrackGrowthModel()
    _, observations = simulate_crack_history(model, steps=8, seed=7)
    system = build_particle_filter_graph(
        model,
        observations,
        n_particles=150 if QUICK else 300,
        n_pes=2,
    )
    return SpiSystem.compile(system.graph, system.partition)


def _steady_measure(build_system, steady_state: str):
    """One timed run of ``steady_state`` mode: ``measure()`` for
    :func:`_repeat`.

    A fresh system is compiled for every run: the application kernels
    are stateful (RNG, collectors), so reusing one would change the
    simulated work between repeats.
    """

    def measure():
        system = build_system()
        start = time.perf_counter()
        run = system.run(
            iterations=STEADY_ITERATIONS, steady_state=steady_state
        )
        return time.perf_counter() - start, run

    return measure


@pytest.fixture(scope="module")
def steady_sweep():
    """fig6/fig7 at STEADY_ITERATIONS, steady-state off vs auto."""
    sweep = {}
    for fig, build_system in (("fig6", _fig6_system), ("fig7", _fig7_system)):
        off, auto = _repeat(
            _steady_measure(build_system, "off"),
            _steady_measure(build_system, "auto"),
        )
        wall_off, run_off, summary_off = off
        wall_auto, run_auto, summary_auto = auto
        # one instrumented off run counts the kernel events the auto
        # run gets to skip — the "effective events/sec" numerator
        events_off = build_system().run(
            iterations=STEADY_ITERATIONS, metrics=True
        ).metrics["simulator"]["events_processed"]
        sweep[fig] = {
            "iterations": STEADY_ITERATIONS,
            "off_wall_seconds": wall_off,
            "auto_wall_seconds": wall_auto,
            **{f"off_{key}": value for key, value in summary_off.items()},
            **{f"auto_{key}": value for key, value in summary_auto.items()},
            "speedup": wall_off / wall_auto if wall_auto > 0 else 0.0,
            "events_off": events_off,
            "events_per_second_off": (
                events_off / wall_off if wall_off > 0 else 0.0
            ),
            "effective_events_per_second_auto": (
                events_off / wall_auto if wall_auto > 0 else 0.0
            ),
            "cycles_off": run_off.cycles,
            "cycles_auto": run_auto.cycles,
            "iteration_period_cycles": run_auto.iteration_period_cycles,
            "detected_at": run_auto.steady_state_detected_at,
            "detected_period_iterations": (
                run_auto.detected_period_iterations
            ),
            "detected_period_cycles": run_auto.detected_period_cycles,
            "extrapolated_iterations": run_auto.extrapolated_iterations,
        }
    return sweep


def test_steady_state_report(steady_sweep):
    rows = ["fig   off wall   auto wall  speedup  detected  extrapolated"]
    for fig, stats in sorted(steady_sweep.items()):
        detected = stats["detected_at"]
        rows.append(
            f"{fig:<5} {stats['off_wall_seconds']:>8.3f}s"
            f" {stats['auto_wall_seconds']:>8.3f}s"
            f" {stats['speedup']:>7.1f}x"
            f"  {'-' if detected is None else detected:>8}"
            f"  {stats['extrapolated_iterations']:>12}"
        )
    emit("Steady-state off vs auto", "\n".join(rows))


def test_steady_state_bit_identical_results(steady_sweep):
    """Extrapolation is exact, not approximate: same final cycle count
    and per-iteration period whether the tail was simulated or warped."""
    for fig, stats in steady_sweep.items():
        assert stats["cycles_off"] == stats["cycles_auto"], fig


def test_steady_state_arms_only_when_declared(steady_sweep):
    """fig6's actors declare timing_periodic, fig7's resampling traffic
    is data-dependent: auto must warp the former and decline the latter."""
    fig6 = steady_sweep["fig6"]
    assert fig6["detected_at"] is not None
    assert fig6["extrapolated_iterations"] > 0
    assert fig6["detected_period_cycles"] > 0
    fig7 = steady_sweep["fig7"]
    assert fig7["detected_at"] is None
    assert fig7["extrapolated_iterations"] == 0


def test_steady_state_speedup(steady_sweep):
    """In-test floor, looser than the committed-baseline gate in
    check_bench.py so a noisy CI runner cannot flake it."""
    assert steady_sweep["fig6"]["speedup"] >= 2.0


def test_kernel_bench_export(kernel_sweep, steady_sweep):
    """Emit BENCH_kernel.json: every synthetic workload and the
    steady-state off-vs-auto sweep."""
    contended = kernel_sweep["contended"]
    path = save_bench_json(
        "kernel",
        makespan_cycles=contended["events_processed"],
        # the sweep's periodic application: fig6's detected steady-state
        # period (was hardcoded 0.0 — validate_bench now rejects that)
        iteration_period_cycles=steady_sweep["fig6"][
            "iteration_period_cycles"
        ],
        wall_seconds=contended["wall_seconds"],
        extra={
            "periodic": True,
            "workloads": kernel_sweep,
            "steady_state": steady_sweep,
        },
    )
    assert path.exists()
