"""The four benchmark workloads: inputs from a seed, passes, output checks.

A workload is built from ``--seed`` (its set-up: imports and input
generation) and then runs *passes*.  A pass is a fixed sequence of
units; the benchmark times the blocks that contain units (one unit for
the figure sweeps, one campaign call for the campaigns) and runs the
output checks between blocks, off the clock.  Every unit that raises or
fails a check counts as failed; nothing is retried or skipped.

All workloads are closed-loop with one client and ``workers=1``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: simulated iterations per fig. 6 / fig. 7 point (the paper's horizon
#: and the ``BENCH_kernel`` one; the fig. 7 crack model overflows past
#: ~700 steps, see README.md)
ITERATIONS = 200
LPC_ORDER = 8
FIG6_PES = (1, 2, 3, 4)
FIG6_SIZES = (128, 256, 512)
FIG7_PES = (1, 2)
FIG7_PARTICLES = (50, 100, 200, 300)
CLOCK_MHZ = 100.0
#: generator seeds per ``conform_cold`` pass (every pass uses new ones),
#: run as consecutive ``run_campaign`` calls of COLD_CALL_SEEDS each, so
#: the host clock is sampled about once a second (see calibration.py)
COLD_SEEDS = 100
COLD_CALL_SEEDS = 25
#: distinct generator seeds per ``campaign_warm`` pass, and how often
#: each one repeats: 6 of every 8 * WARM_REPEATS cache lookups of a
#: graph miss, so the hit rate is 0.95
WARM_DISTINCT = 20
WARM_REPEATS = 15
#: candidates drawn per distinct seed for systematic sampling
WARM_STRATA = 8


@dataclass
class PassResult:
    """What one pass did, measured and checked."""

    units: int = 0
    failed: int = 0
    #: host seconds inside the timed blocks (checks excluded)
    wall: float = 0.0
    sim_cycles: int = 0
    sim_wire_bytes: int = 0
    #: simulated PE firings, for the wall-time plausibility check
    sim_firings: int = 0
    #: campaign-level counts (zero for the figure sweeps)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_by_kind: Dict[str, Dict[str, int]] = field(default_factory=dict)
    violations: int = 0
    failed_units: int = 0
    #: makespan total the campaign report gives, to cross-check the tap
    report_cycles: Optional[int] = None
    errors: List[str] = field(default_factory=list)

    def fail(self, message: str, units: int = 1) -> None:
        self.failed += units
        if len(self.errors) < 5:
            self.errors.append(message)


class SimTap:
    """Sums the statistics of every simulated SPI and MPI run.

    Installed for the whole process in both modes; it reads each
    ``RunResult`` after the run and does no timing.
    """

    def __init__(self) -> None:
        self.cycles = 0
        self.wire_bytes = 0
        self.firings = 0
        self._restore = []

    def install(self) -> None:
        from repro.mpi.baseline import MpiSystem
        from repro.spi.runtime import SpiSystem

        for cls in (SpiSystem, MpiSystem):
            original = cls.__dict__["run"]
            self._restore.append((cls, original))
            cls.run = self._wrap(original)

    def uninstall(self) -> None:
        while self._restore:
            cls, original = self._restore.pop()
            cls.run = original

    def _wrap(self, run):
        tap = self

        def tapped(system, *args, **kwargs):
            result = run(system, *args, **kwargs)
            tap.cycles += result.cycles
            tap.wire_bytes += result.wire_bytes
            tap.firings += sum(pe.firings for pe in result.pe_stats)
            return result

        tapped.__wrapped__ = run
        return tapped

    def read(self):
        return self.cycles, self.wire_bytes, self.firings


class Workload:
    """Base class: ``run_pass`` measures one pass through the tap."""

    name = ""
    #: every pass runs the same inputs (the figure sweeps); campaign
    #: passes move on to new generator seeds
    identical_passes = False
    #: passes every measured run completes; the simulated statistics
    #: are their total, so a campaign's cover enough distinct graphs to
    #: be steady from seed to seed
    sim_passes = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        #: the segment's ``calibration.HostClock``, sampled before each
        #: timed block
        self.clock = None

    def run_pass(self, index: int, tap: SimTap, tracer=None) -> PassResult:
        result = PassResult()
        before = tap.read()
        self._run(index, result, tracer)
        after = tap.read()
        result.sim_cycles = after[0] - before[0]
        result.sim_wire_bytes = after[1] - before[1]
        result.sim_firings = after[2] - before[2]
        if (
            result.report_cycles is not None
            and not result.failed
            and result.report_cycles != result.sim_cycles
        ):
            result.fail(
                f"campaign report sums {result.report_cycles} simulated "
                f"cycles, the runs {result.sim_cycles}"
            )
        return result

    def _run(self, index: int, result: PassResult, tracer) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One small untimed unit, so lazy set-up ends before timing."""
        raise NotImplementedError


def _timed_unit(result: PassResult, tracer, clock, body):
    """Time one unit; a raising unit counts as failed."""
    if clock is not None:
        clock.sample()
    start = time.perf_counter()
    frame = tracer.enter("unit") if tracer is not None else None
    try:
        return body()
    except Exception as exc:  # a failing unit is a result, not a crash
        result.fail(f"{type(exc).__name__}: {exc}")
        return None
    finally:
        if frame is not None:
            tracer.exit(frame)
        result.wall += time.perf_counter() - start
        result.units += 1


class Fig6Lpc(Workload):
    """Paper fig. 6: LPC actor D at 1..4 PEs x frame sizes 128/256/512."""

    name = "fig6_lpc"
    identical_passes = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        import numpy as np
        from repro.apps.lpc import build_parallel_error_graph, frame_stream
        from repro.apps.lpc.lpc import lpc_coefficients, prediction_error
        from repro.spi import SpiSystem

        self._np = np
        self._build = build_parallel_error_graph
        self._spi = SpiSystem
        self.frames = {}
        self.expected = {}
        for size in FIG6_SIZES:
            frames = frame_stream(
                total_samples=2 * size,
                frame_size=size,
                seed=self.rng.randrange(2**31),
            )
            self.frames[size] = frames
            self.expected[size] = [
                prediction_error(f, lpc_coefficients(f, LPC_ORDER))
                for f in frames
            ]

    def _run(self, index, result, tracer):
        for n in FIG6_PES:
            for size in FIG6_SIZES:
                system = _timed_unit(
                    result, tracer, self.clock, lambda: self._unit(size, n)
                )
                if system is not None:
                    self._check(system, size, result)

    def warm_up(self):
        self._unit(FIG6_SIZES[0], FIG6_PES[0])

    def _unit(self, size, n):
        system = self._build(self.frames[size], order=LPC_ORDER, n_units=n)
        self._spi.compile(system.graph, system.partition).run(
            iterations=ITERATIONS, steady_state="off"
        )
        return system

    def _check(self, system, size, result):
        expected = self.expected[size]
        for iteration in range(ITERATIONS):
            got = system.assembled_errors(iteration, size)
            want = expected[iteration % len(expected)]
            if got.shape != want.shape or not self._np.allclose(
                got, want, rtol=1e-9, atol=1e-12
            ):
                result.fail(
                    f"n={system.n_units} size={size} iteration "
                    f"{iteration}: assembled errors differ from "
                    "prediction_error"
                )
                return


class Fig7Pf(Workload):
    """Paper fig. 7: particle filter at 1, 2 PEs x 50..300 particles."""

    name = "fig7_pf"
    identical_passes = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        import numpy as np
        import repro.analysis
        import repro.observability
        from repro.apps.particle_filter import (
            CrackGrowthModel,
            build_particle_filter_graph,
            simulate_crack_history,
        )
        from repro.spi import SpiSystem

        self._np = np
        self._build = build_particle_filter_graph
        self._spi = SpiSystem
        # looked up per call, so the tracer's wrappers are found
        self._observability = repro.observability
        self._analysis = repro.analysis
        self.model = CrackGrowthModel()
        self.truth, self.observations = simulate_crack_history(
            self.model, steps=ITERATIONS, seed=self.rng.randrange(2**31)
        )
        self.filter_seed = self.rng.randrange(2**31)

    def _run(self, index, result, tracer):
        for n in FIG7_PES:
            for particles in FIG7_PARTICLES:
                system = _timed_unit(
                    result, tracer, self.clock,
                    lambda: self._unit(particles, n),
                )
                if system is not None:
                    self._check(system, result)

    def warm_up(self):
        self._unit(FIG7_PARTICLES[0], FIG7_PES[0])

    def _unit(self, particles, n):
        system = self._build(
            self.model,
            self.observations,
            n_particles=particles,
            n_pes=n,
            seed=self.filter_seed,
        )
        run = self._spi.compile(system.graph, system.partition).run(
            iterations=ITERATIONS, metrics=True, trace=True,
            steady_state="off",
        )
        self._observability.chrome_trace(
            run.trace, run.message_log, clock_mhz=CLOCK_MHZ
        )
        self._analysis.render_metrics_summary(run.metrics)
        return system

    def _check(self, system, result):
        np = self._np
        estimates = np.asarray(system.estimates(), dtype=float)
        label = f"n={system.n_pes} particles={system.n_particles}"
        if estimates.shape != self.truth.shape:
            result.fail(f"{label}: {estimates.shape[0]} estimates")
        elif not np.all(np.isfinite(estimates)):
            result.fail(f"{label}: non-finite estimate")
        else:
            rmse = float(np.sqrt(np.mean((estimates - self.truth) ** 2)))
            limit = 3 * self.model.measurement_noise
            if not rmse < limit:
                result.fail(f"{label}: RMSE {rmse} >= {limit}")


def _timed_campaign(result: PassResult, units: int, clock, call):
    """Time one campaign call; if it raises, all its units failed."""
    if clock is not None:
        clock.sample()
    start = time.perf_counter()
    try:
        report = call()
    except Exception as exc:  # a failing campaign is a result, not a crash
        result.fail(f"campaign raised {type(exc).__name__}: {exc}", units)
        report = None
    finally:
        result.wall += time.perf_counter() - start
    result.units += units
    if report is not None:
        cycles = report["bench"]["makespan_cycles"]
        result.report_cycles = (result.report_cycles or 0) + cycles
        _campaign_counts(report, result)
    return report


def _campaign_counts(report, result: PassResult) -> None:
    cache = report["cache"]
    result.cache_hits += cache["hits"]
    result.cache_misses += cache["misses"]
    for kind, counts in cache["by_kind"].items():
        bucket = result.cache_by_kind.setdefault(kind, {"hits": 0, "misses": 0})
        bucket["hits"] += counts["hits"]
        bucket["misses"] += counts["misses"]


class ConformCold(Workload):
    """``run_campaign`` over distinct generator seeds, cache on but cold."""

    name = "conform_cold"
    sim_passes = 6

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        import repro.conformance.runner as runner

        self._runner = runner
        self.seed_start = 1 + self.rng.randrange(10**6)

    def warm_up(self):
        # a seed just below the measured range, through a fresh cache
        self._runner.run_campaign(
            self._runner.CampaignConfig(seeds=1, seed_start=self.seed_start - 1)
        )

    def _run(self, index, result, tracer):
        first = self.seed_start + index * COLD_SEEDS
        for start in range(first, first + COLD_SEEDS, COLD_CALL_SEEDS):
            self._call(start, result)

    def _call(self, start, result):
        runner = self._runner
        config = runner.CampaignConfig(seeds=COLD_CALL_SEEDS, seed_start=start)
        report = _timed_campaign(
            result, COLD_CALL_SEEDS, self.clock,
            lambda: runner.run_campaign(config, workers=1),
        )
        if report is None:
            return
        bad = [case for case in report["cases"] if not case["ok"]]
        result.violations += sum(len(case["violations"]) for case in bad)
        result.failed_units += sum(
            1 for case in bad
            if any(v["oracle"] == "service" for v in case["violations"])
        )
        for case in bad:
            first = case["violations"][0]
            result.fail(f"seed {case['seed']}: [{first['oracle']}/"
                        f"{first['run']}] {first['detail']}")


class CampaignWarm(Workload):
    """``run_service_campaign`` of ``conform.seed`` with repeated seeds."""

    name = "campaign_warm"
    sim_passes = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        import dataclasses

        import repro.service as service
        from repro.conformance.generator import GraphShape, generate_spec

        self._service = service
        # held here, before any tracer rebinds the module name: choosing
        # the seeds is the benchmark's work, not a unit's
        self._generate_spec = generate_spec
        self._shape = GraphShape()
        self.shape = dataclasses.asdict(self._shape)

    def distinct_seeds(self, index: int) -> List[int]:
        """WARM_DISTINCT generator seeds spread evenly over PE traffic.

        Systematic sampling: draw WARM_STRATA candidates per seed, order
        them by the bytes per iteration their graphs send between PEs,
        and take every WARM_STRATA-th.  One conformance unit's cost and
        traffic vary about as much as their mean from graph to graph,
        and this pass holds only WARM_DISTINCT graphs; sampling across
        the traffic range gives every pass the same mix of one-PE and
        heavily communicating graphs, so the figures stay steady from
        seed to seed.
        """
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        pool = rng.sample(range(10**6), WARM_DISTINCT * WARM_STRATA)
        pool.sort(key=lambda seed: (self._cross_pe_bytes(seed), seed))
        return pool[rng.randrange(WARM_STRATA)::WARM_STRATA]

    def _cross_pe_bytes(self, seed: int) -> int:
        spec = self._generate_spec(seed, self._shape)
        pe = dict(spec.assignment)
        reps = spec.repetitions()
        return sum(
            reps[edge.src] * edge.rate_factor * edge.token_bytes
            for edge in spec.edges
            if pe[edge.src] != pe[edge.snk]
        )

    def warm_up(self):
        self._service.run_service_campaign(
            self._plan([self.rng.randrange(10**6)], 2)
        )

    def _plan(self, distinct, repeats):
        units = [
            {"seed": distinct[i % len(distinct)], "shape": self.shape}
            for i in range(len(distinct) * repeats)
        ]
        return self._service.CampaignPlan(
            operation="conform.seed", units=units, workers=1,
            name="campaign_warm",
        )

    def _run(self, index, result, tracer):
        service = self._service
        plan = self._plan(self.distinct_seeds(index), WARM_REPEATS)
        report = _timed_campaign(
            result, len(plan.units), self.clock,
            lambda: service.run_service_campaign(plan),
        )
        if report is None:
            return
        result.failed_units += len(report["failures"])
        for failure in report["failures"]:
            result.fail(f"{failure['run_id']}: {failure['error']}")
        for value in report["results"]:
            if value is None:
                continue
            case = value["payload"]["case"]
            if not case["ok"]:
                result.violations += len(case["violations"])
                first = case["violations"][0]
                result.fail(f"seed {case['seed']}: [{first['oracle']}/"
                            f"{first['run']}] {first['detail']}")


WORKLOADS = {cls.name: cls for cls in (Fig6Lpc, Fig7Pf, ConformCold, CampaignWarm)}
