"""Built-in run operations: conform, simulate, bench, ablate.

Each operation wraps one existing entry point of the reproduction
behind the registry's validated-parameter interface, returning plain
JSON payloads so campaign units can cross process boundaries.  The
conformance runner, the ``repro campaign`` CLI subcommand and the
figure benchmarks are all thin clients of these four.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, Optional

from repro.service.registry import (
    Operation,
    OperationResult,
    OperationSpec,
    Param,
    RegistryError,
    RunContext,
    register_operation,
)

__all__ = [
    "AblateResyncOperation",
    "BenchFigureOperation",
    "ConformSeedOperation",
    "SimulateAppOperation",
    "build_app_system",
]


def _check_pes(app: str, pes: int) -> None:
    if app == "chain" and pes < 2:
        raise RegistryError(
            f"app 'chain' pipelines its stages over at least 2 PEs, "
            f"got pes={pes}"
        )


def build_app_system(app: str, pes: int, iterations: int):
    """Build one of the example applications (shared with the CLI).

    Raises :class:`RegistryError` for a PE count the app cannot use.
    """
    _check_pes(app, pes)
    if app == "lpc":
        from repro.apps.lpc import build_parallel_error_graph, frame_stream

        frames = frame_stream(total_samples=2 * 256, frame_size=256)
        return build_parallel_error_graph(frames, order=8, n_units=pes)
    if app == "pf":
        from repro.apps.particle_filter import (
            CrackGrowthModel,
            build_particle_filter_graph,
            simulate_crack_history,
        )

        model = CrackGrowthModel()
        _, observations = simulate_crack_history(
            model, steps=max(4, iterations)
        )
        return build_particle_filter_graph(
            model, observations, n_particles=100, n_pes=min(pes, 2)
        )
    if app == "chain":
        from repro.dataflow import DataflowGraph
        from repro.mapping import Partition, auto_pipeline

        graph = DataflowGraph("chain")
        stages = [("load", 400), ("transform", 500), ("store", 300)]
        actors = [graph.actor(name, cycles=c) for name, c in stages]
        for left, right in zip(actors, actors[1:]):
            out = left.add_output(f"to_{right.name}")
            inp = right.add_input(f"from_{left.name}")
            graph.connect(out, inp)
        result = auto_pipeline(graph, stages=min(pes, len(stages)))
        return SimpleNamespace(
            graph=result.graph,
            partition=Partition.manual(result.graph, result.stages),
        )
    raise ValueError(f"unknown app {app!r}")


class _AppSpec(OperationSpec):
    """Parameters of an operation that builds an example app: the app
    must be able to use the requested PE count."""

    def validate(self, values: Dict[str, object]) -> Dict[str, object]:
        resolved = super().validate(values)
        _check_pes(resolved["app"], resolved["pes"])
        return resolved


@register_operation
class ConformSeedOperation(Operation):
    """Run the differential oracle stack on one generated seed."""

    name = "conform.seed"
    description = (
        "generate the graph for one seed, run the oracle stack, "
        "optionally shrink a failure to a minimal spec"
    )
    spec = OperationSpec(
        params=(
            Param("seed", int, required=True, minimum=0,
                  help="generator seed to check"),
            Param("iterations", int, default=4, minimum=1,
                  help="graph iterations per oracle run"),
            Param("quick", bool, default=False,
                  help="skip the slow oracles"),
            Param("shrink", bool, default=True,
                  help="shrink failures to a minimal spec"),
            Param("max_cycles", int, default=5_000_000, minimum=1,
                  help="simulation cycle budget per run"),
            Param("shape", dict, default=None,
                  help="GraphShape field overrides"),
        )
    )

    def execute(
        self, params: Dict[str, object], context: RunContext
    ) -> OperationResult:
        from repro.conformance.generator import GraphShape, generate_spec
        from repro.conformance.oracles import (
            OracleReport,
            Violation,
            run_oracle_stack,
        )
        from repro.conformance.spec import SpecError, build_case

        seed = params["seed"]
        shape = GraphShape(**(params["shape"] or {}))
        spec = generate_spec(seed, shape)
        try:
            case = build_case(spec)
        except SpecError as exc:
            # a generator bug, not a semantics bug — still a failure
            report = OracleReport(seed=seed)
            report.violations.append(
                Violation("generator", "build", str(exc))
            )
        else:
            report = run_oracle_stack(
                case,
                iterations=params["iterations"],
                quick=params["quick"],
                max_cycles=params["max_cycles"],
                cache=context.cache,
            )

        payload: Dict[str, object] = {"case": report.to_json()}
        if not report.ok and params["shrink"]:
            shrunk = self._shrink(seed, report, shape, params)
            if shrunk is not None:
                payload["shrunk"] = shrunk
        cycles = sum(
            int(run.get("cycles", 0)) for run in report.runs.values()
        )
        return OperationResult(
            status="completed",
            payload=payload,
            metrics={"cycles": cycles, "ok": report.ok},
        )

    @staticmethod
    def _shrink(
        seed: int, report, shape, params: Dict[str, object]
    ) -> Optional[Dict[str, object]]:
        """Shrink the first violation to a minimal spec (uncached: the
        shrinker mutates structure, so the cache would only miss)."""
        from repro.conformance.generator import generate_spec
        from repro.conformance.shrinker import (
            oracle_failure_predicate,
            render_pytest_repro,
            shrink,
        )

        target = report.violations[0].oracle
        if target == "generator":
            return None
        predicate = oracle_failure_predicate(
            target,
            iterations=params["iterations"],
            quick=params["quick"],
            max_cycles=params["max_cycles"],
        )
        spec = generate_spec(seed, shape)
        if not predicate(spec):
            # flaky failure (should not happen: everything is seeded)
            return None
        result = shrink(spec, predicate)
        return {
            "oracle": target,
            "actors": len(result.spec.actors),
            "edges": len(result.spec.edges),
            "steps": result.steps,
            "attempts": result.attempts,
            "spec": result.spec.to_json(),
            "pytest_repro": render_pytest_repro(result.spec, target),
        }


@register_operation
class SimulateAppOperation(Operation):
    """Compile and simulate one example application."""

    name = "simulate.app"
    description = "compile + run an example app, report run statistics"
    spec = _AppSpec(
        params=(
            Param("app", str, required=True, choices=("lpc", "pf", "chain"),
                  help="example application to simulate"),
            Param("pes", int, default=3, minimum=1,
                  help="number of processing elements"),
            Param("iterations", int, default=5, minimum=1,
                  help="graph iterations to simulate"),
            Param(
                "transport",
                str,
                default="p2p",
                choices=("p2p", "shared_bus", "ordered_bus"),
                help="data-transport model",
            ),
        )
    )

    def execute(
        self, params: Dict[str, object], context: RunContext
    ) -> OperationResult:
        from repro.spi.runtime import SpiConfig, SpiSystem

        system = build_app_system(
            params["app"], params["pes"], params["iterations"]
        )
        compiled = SpiSystem.compile(
            system.graph,
            system.partition,
            SpiConfig(transport=params["transport"]),
            cache=context.cache,
        )
        result = compiled.run(iterations=params["iterations"])
        return OperationResult(
            status="completed",
            payload={
                "cycles": result.cycles,
                "iteration_period_cycles": result.iteration_period_cycles,
                "execution_time_us": result.execution_time_us,
                "data_messages": result.data_messages,
                "sync_messages": result.sync_messages,
                "wire_bytes": result.wire_bytes,
                "mcm_bound_cycles": (
                    compiled.estimated_iteration_period_cycles()
                ),
            },
            metrics={"cycles": result.cycles},
        )


@register_operation
class BenchFigureOperation(Operation):
    """Measure one point of the fig6/fig7 scaling series."""

    name = "bench.figure"
    description = "one (size, n) measurement point of figure 6 or 7"
    spec = OperationSpec(
        params=(
            Param("figure", str, required=True, choices=("fig6", "fig7"),
                  help="paper figure the point belongs to"),
            Param("size", int, required=True, minimum=1,
                  help="x-axis value: sample size (fig6) / particles (fig7)"),
            Param("n", int, required=True, minimum=1,
                  help="number of PEs"),
            Param("iterations", int, default=6, minimum=1,
                  help="graph iterations to simulate"),
        )
    )

    def execute(
        self, params: Dict[str, object], context: RunContext
    ) -> OperationResult:
        from repro.spi.runtime import SpiSystem

        if params["figure"] == "fig6":
            from repro.apps.lpc import build_parallel_error_graph, frame_stream

            frames = frame_stream(
                total_samples=2 * params["size"], frame_size=params["size"]
            )
            system = build_parallel_error_graph(
                frames, order=8, n_units=params["n"]
            )
        else:
            from repro.apps.particle_filter import (
                CrackGrowthModel,
                build_particle_filter_graph,
                simulate_crack_history,
            )

            model = CrackGrowthModel()
            _, observations = simulate_crack_history(
                model, steps=max(4, params["iterations"])
            )
            system = build_particle_filter_graph(
                model,
                observations,
                n_particles=params["size"],
                n_pes=params["n"],
            )
        compiled = SpiSystem.compile(
            system.graph, system.partition, cache=context.cache
        )
        result = compiled.run(iterations=params["iterations"])
        return OperationResult(
            status="completed",
            payload={
                "cycles": result.cycles,
                "iteration_period_cycles": result.iteration_period_cycles,
            },
            metrics={"cycles": result.cycles},
        )


@register_operation
class AblateResyncOperation(Operation):
    """Raw-UBS vs resynchronized run of one example application."""

    name = "ablate.resync"
    description = (
        "measure sync-message and wire-byte savings of resynchronization"
    )
    spec = _AppSpec(
        params=(
            Param("app", str, required=True, choices=("lpc", "pf", "chain"),
                  help="example application to ablate"),
            Param("pes", int, default=3, minimum=1,
                  help="number of processing elements"),
            Param("iterations", int, default=4, minimum=1,
                  help="graph iterations to simulate"),
        )
    )

    def execute(
        self, params: Dict[str, object], context: RunContext
    ) -> OperationResult:
        from repro.spi.library import lower
        from repro.spi.runtime import SpiConfig, SpiSystem

        system = build_app_system(
            params["app"], params["pes"], params["iterations"]
        )
        lowering = lower(system.graph, system.partition)
        raw = SpiSystem.compile(
            system.graph,
            system.partition,
            SpiConfig(protocol_policy="always_ubs", resynchronize=False),
            cache=context.cache,
            lowering=lowering,
        ).run(iterations=params["iterations"])
        optimised = SpiSystem.compile(
            system.graph,
            system.partition,
            SpiConfig(protocol_policy="always_ubs", resynchronize=True),
            cache=context.cache,
            lowering=lowering,
        ).run(iterations=params["iterations"])
        return OperationResult(
            status="completed",
            payload={
                "sync_messages_raw": raw.sync_messages,
                "sync_messages_resync": optimised.sync_messages,
                "wire_bytes_saved": raw.wire_bytes - optimised.wire_bytes,
            },
            metrics={"cycles": raw.cycles + optimised.cycles},
        )
