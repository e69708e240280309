"""Differential oracle stack for conformance cases.

Each case is executed under several independent implementations of the
same dataflow semantics and the observations are cross-checked:

``reference``
    Single-PE PASS interpreter (:mod:`repro.conformance.reference`).
``spi``
    The full SPI flow: protocol selection, resynchronization, self-timed
    simulation.
``spi-noresync`` *(full mode)*
    SPI with resynchronization disabled — used by the
    *resync-invariance* oracle: removing redundant synchronization must
    never change observable token order or data traffic.
``spi-ubs`` *(full mode)*
    SPI forced onto credit-windowed UBS with a tiny window, exercising
    runtime flow control that the auto policy often optimises away.
``mpi``
    The MPI-style baseline (eager/rendezvous, envelopes, matching).

Oracles applied to the collected observations:

* **token-stream** — every run's per-actor firing streams (inputs and
  outputs, recorded raw by the shared :class:`TokenTap`) equal the
  reference's.
* **occupancy** — each SPI channel's simulated buffer high-water mark
  stays within the static bound derived from the channel plan (paper
  eq. 2 via the plan's ``capacity_messages``); the bound function is
  injectable so mutation tests can verify the oracle actually bites.
* **message-count** — SPI data-message traffic equals the static
  prediction ``sum(q[send actor]) * iterations``.
* **throughput** — the measured makespan of the resynchronized SPI run
  respects the MCM lower bound once pipeline-fill slack is discounted.
* **resync-invariance** — token streams and data-message counts are
  identical with and without resynchronization.
* **execution** — no run raises (deadlock, overflow, ...); an exception
  is itself a conformance violation and is recorded with its message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.conformance.reference import run_reference
from repro.conformance.spec import ConformanceCase
from repro.mpi.baseline import MpiSystem
from repro.spi.library import lower
from repro.spi.runtime import ChannelPlan, SpiConfig, SpiSystem

__all__ = [
    "Violation",
    "OracleReport",
    "default_occupancy_bound",
    "run_oracle_stack",
    "DEFAULT_MAX_CYCLES",
]

#: generous simulation budget — generated graphs are small, so hitting
#: this means a genuine stall, which the execution oracle reports
DEFAULT_MAX_CYCLES = 5_000_000


@dataclass(frozen=True)
class Violation:
    """One oracle failure for one run of one case."""

    oracle: str
    run: str
    detail: str

    def to_json(self) -> Dict[str, str]:
        return {"oracle": self.oracle, "run": self.run, "detail": self.detail}


@dataclass
class OracleReport:
    """Outcome of the full oracle stack on one case."""

    seed: int
    violations: List[Violation] = field(default_factory=list)
    runs: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "violations": [v.to_json() for v in self.violations],
            "runs": self.runs,
        }


def default_occupancy_bound(plan: ChannelPlan) -> int:
    """Static byte bound for one channel's receive-side buffer.

    The SPI compile flow sizes each physical buffer from the protocol
    capacity (BBS: ``feedback + delay + 1`` messages, eq. 2's ``B(e)``
    expressed in messages; UBS: the credit window) plus one in-flight
    message.  Simulated occupancy must never exceed it.
    """
    return (plan.capacity_messages + 1) * plan.message_payload_bytes


def _spi_run_matrix(quick: bool) -> List[Tuple[str, SpiConfig]]:
    matrix = [("spi", SpiConfig(resynchronize=True))]
    if not quick:
        matrix.append(("spi-noresync", SpiConfig(resynchronize=False)))
        matrix.append(
            (
                "spi-ubs",
                SpiConfig(
                    protocol_policy="always_ubs",
                    ubs_window=2,
                    resynchronize=False,
                ),
            )
        )
    return matrix


def _compare_streams(
    expected: Dict[str, List[tuple]],
    actual: Dict[str, List[tuple]],
    run: str,
    oracle: str = "token-stream",
    baseline: str = "reference",
    limit: int = 3,
) -> List[Violation]:
    """Compare two recorded stream sets; report at most ``limit`` diffs."""
    violations: List[Violation] = []
    for actor in sorted(set(expected) | set(actual)):
        if len(violations) >= limit:
            break
        want = expected.get(actor, [])
        got = actual.get(actor, [])
        if len(want) != len(got):
            violations.append(
                Violation(
                    oracle,
                    run,
                    f"actor {actor!r}: {len(got)} firings recorded, "
                    f"{baseline} has {len(want)}",
                )
            )
            continue
        for index, (w, g) in enumerate(zip(want, got)):
            if w != g:
                violations.append(
                    Violation(
                        oracle,
                        run,
                        f"actor {actor!r} firing {index}: {g!r} != "
                        f"{baseline} {w!r}",
                    )
                )
                break
    return violations


def run_oracle_stack(
    case: ConformanceCase,
    iterations: int = 4,
    quick: bool = False,
    occupancy_bound_fn: Optional[Callable[[ChannelPlan], int]] = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    cache=None,
) -> OracleReport:
    """Run every execution mode of ``case`` and cross-check them.

    ``cache`` is an optional :class:`repro.service.AnalysisCache`
    passed through to every SPI compile; the oracles themselves are
    cache-agnostic (cached and uncached runs must produce identical
    verdicts — the service test suite enforces exactly that).

    The case is lowered once (:func:`repro.spi.library.lower`) and every
    SPI and MPI compile reuses that front half.  When lowering raises,
    each run records the same ``execution`` violation, as if each
    compile had raised on its own.
    """
    bound_fn = occupancy_bound_fn or default_occupancy_bound
    report = OracleReport(seed=case.spec.seed)

    try:
        reference = run_reference(case, iterations)
    except Exception as exc:
        report.violations.append(
            Violation("execution", "reference", f"{type(exc).__name__}: {exc}")
        )
        return report
    report.runs["reference"] = {
        "firings": sum(len(v) for v in reference.values())
    }

    matrix = _spi_run_matrix(quick)
    try:
        lowering = lower(case.graph, case.partition)
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}"
        report.violations.extend(
            Violation("execution", label, detail)
            for label in [label for label, _ in matrix] + ["mpi"]
        )
        return report

    spi_streams: Dict[str, Dict[str, List[tuple]]] = {}
    spi_results: Dict[str, object] = {}
    for label, config in matrix:
        try:
            system = SpiSystem.compile(
                case.graph, case.partition, config, cache=cache,
                lowering=lowering,
            )
            case.tap.begin(label)
            result = system.run(
                iterations=iterations,
                max_cycles=max_cycles,
                check_lost_wakeups=True,
            )
        except Exception as exc:
            report.violations.append(
                Violation("execution", label, f"{type(exc).__name__}: {exc}")
            )
            continue
        streams = case.tap.streams(label)
        spi_streams[label] = streams
        spi_results[label] = result
        report.runs[label] = {
            "cycles": result.cycles,
            "data_messages": result.data_messages,
            "ack_messages": result.ack_messages,
            "resync_messages": result.resync_messages,
        }

        report.violations.extend(_compare_streams(reference, streams, label))

        for name, plan in system.channel_plans.items():
            bound = bound_fn(plan)
            high = result.buffer_high_water.get(name, 0)
            if high > bound:
                report.violations.append(
                    Violation(
                        "occupancy",
                        label,
                        f"channel {name!r}: high-water {high} B exceeds "
                        f"static bound {bound} B ({plan.protocol} with "
                        f"{plan.capacity_messages} messages x "
                        f"{plan.message_payload_bytes} B)",
                    )
                )

        insertion_graph = system.insertion.graph
        reps = system.task_repetitions()
        expected_messages = iterations * sum(
            reps[plan.send_actor] for plan in system.channel_plans.values()
        )
        if result.data_messages != expected_messages:
            report.violations.append(
                Violation(
                    "message-count",
                    label,
                    f"{result.data_messages} data messages, statically "
                    f"predicted {expected_messages}",
                )
            )

        if label == "spi":
            mcm = system.estimated_iteration_period_cycles()
            fill_slack = (
                sum(e.delay for e in insertion_graph.edges) + 1
            )
            floor = mcm * max(0, iterations - fill_slack)
            if result.cycles < floor - 1e-6:
                report.violations.append(
                    Violation(
                        "throughput",
                        label,
                        f"makespan {result.cycles} cycles beats the MCM "
                        f"bound {floor:.1f} (MCM {mcm:.1f}, fill slack "
                        f"{fill_slack} iterations)",
                    )
                )

    if "spi" in spi_streams and "spi-noresync" in spi_streams:
        report.violations.extend(
            _compare_streams(
                spi_streams["spi-noresync"],
                spi_streams["spi"],
                "spi",
                oracle="resync-invariance",
                baseline="spi-noresync",
            )
        )
        resync = spi_results["spi"]
        plain = spi_results["spi-noresync"]
        if resync.data_messages != plain.data_messages:
            report.violations.append(
                Violation(
                    "resync-invariance",
                    "spi",
                    f"resynchronization changed data traffic: "
                    f"{resync.data_messages} != {plain.data_messages}",
                )
            )

    try:
        mpi_system = MpiSystem.compile(
            case.graph, case.partition, lowering=lowering
        )
        case.tap.begin("mpi")
        mpi_result = mpi_system.run(
            iterations=iterations,
            max_cycles=max_cycles,
            check_lost_wakeups=True,
        )
    except Exception as exc:
        report.violations.append(
            Violation("execution", "mpi", f"{type(exc).__name__}: {exc}")
        )
    else:
        report.runs["mpi"] = {
            "cycles": mpi_result.cycles,
            "data_messages": mpi_result.data_messages,
        }
        report.violations.extend(
            _compare_streams(reference, case.tap.streams("mpi"), "mpi")
        )

    return report
