"""Processing element model.

A PE in the paper's systems is either a customized hardware unit (the
per-PE error-generation datapaths of application 1, the particle-filter
replicas of application 2) or an I/O interface block.  For simulation a
PE is a sequencer that executes its self-timed task order; this module
holds its identity and statistics.

Heterogeneity: a :class:`PEClass` describes *how* a PE executes actor
firings.  A ``gpp`` (general-purpose processor) fires one invocation at
a time at the actor's native cost.  An ``accelerator`` (the
OpenCL-device model of Boutellier/Hautala's dynamic actor networks)
pays a fixed ``dispatch_cycles`` overhead per kernel launch but then
processes firings at ``cycles_per_element`` of the native cost — so a
*batched* dispatch over B queued firings amortizes the launch overhead
``(B - 1) * dispatch_cycles`` against the sequential schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Sequence

__all__ = ["PEClass", "GPP", "ProcessingElement"]

#: valid values of :attr:`PEClass.kind`
_PE_KINDS = ("gpp", "accelerator")


@dataclass(frozen=True)
class PEClass:
    """Execution-cost model of one PE class.

    ``dispatch_cycles`` is the fixed per-dispatch overhead (kernel
    launch, DMA setup); ``cycles_per_element`` scales the actor's
    native execution cycles.  A ``gpp`` is the identity model:
    zero dispatch overhead, native per-firing cost, and batching on it
    is defined as a no-op (one dispatch per firing) so that mapping an
    unbatched graph onto gpp PEs is bit-identical to the homogeneous
    platform.
    """

    kind: str = "gpp"
    dispatch_cycles: int = 0
    cycles_per_element: float = 1.0
    #: relative resource cost, for equal-budget platform comparisons
    resource_cost: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _PE_KINDS:
            raise ValueError(
                f"unknown PE class kind {self.kind!r} "
                f"(expected one of {_PE_KINDS})"
            )
        if self.dispatch_cycles < 0:
            raise ValueError("dispatch_cycles must be >= 0")
        if self.cycles_per_element <= 0:
            raise ValueError("cycles_per_element must be > 0")
        if self.resource_cost <= 0:
            raise ValueError("resource_cost must be > 0")
        if self.kind == "gpp" and (
            self.dispatch_cycles or self.cycles_per_element != 1.0
        ):
            raise ValueError(
                "a gpp PE class has no dispatch overhead and native "
                "per-element cost; use kind='accelerator' to model one"
            )

    @property
    def is_accelerator(self) -> bool:
        return self.kind == "accelerator"

    def firing_cycles(self, native_cycles: int) -> int:
        """Cost of one firing *inside* an already-paid dispatch."""
        if native_cycles < 0:
            raise ValueError("native cycles must be >= 0")
        if not self.is_accelerator:
            return native_cycles
        return int(math.ceil(native_cycles * self.cycles_per_element))

    def batch_cycles(self, native_cycles_per_firing: Sequence[int]) -> int:
        """Cost of one dispatch covering the given firings.

        A gpp charges the native cost of every firing (batching is a
        grouping of the schedule, not an execution change); an
        accelerator pays ``dispatch_cycles`` once plus the scaled
        per-firing cost.
        """
        total = sum(
            self.firing_cycles(cycles) for cycles in native_cycles_per_firing
        )
        if self.is_accelerator and native_cycles_per_firing:
            total += self.dispatch_cycles
        return total

    def dispatch_cycles_saved(self, batch: int) -> int:
        """Launch overhead amortized by one dispatch of ``batch`` firings
        relative to ``batch`` sequential dispatches."""
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if not self.is_accelerator:
            return 0
        return (batch - 1) * self.dispatch_cycles


#: the default homogeneous PE class
GPP = PEClass()


@dataclass
class ProcessingElement:
    """Identity and accounting for one PE."""

    index: int
    name: str = ""
    pe_class: PEClass = GPP
    busy_cycles: int = 0
    firings: int = 0
    blocked_events: int = 0
    blocked_cycles: int = 0
    #: blocked cycles attributed to the task whose guard held the PE up
    blocked_by_task: Dict[str, int] = field(default_factory=dict)
    #: actor firings executed inside a batched (B > 1) dispatch
    batched_firings: int = 0
    #: batched dispatches issued (each covers > 1 firing)
    batch_dispatches: int = 0
    #: launch overhead amortized away by batched dispatches
    amortized_dispatch_cycles_saved: int = 0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("PE index must be >= 0")
        if not self.name:
            self.name = f"PE{self.index}"

    def record_batched_dispatch(self, firings: int, cycles_saved: int) -> None:
        """Account one batched dispatch covering ``firings`` invocations."""
        if firings < 2:
            raise ValueError("a batched dispatch covers >= 2 firings")
        if cycles_saved < 0:
            raise ValueError("cycles_saved must be >= 0")
        self.batched_firings += firings
        self.batch_dispatches += 1
        self.amortized_dispatch_cycles_saved += cycles_saved
        # the sequencer records one firing per task *execution*; the
        # other firings of the burst are accounted here so ``firings``
        # stays the logical invocation count
        self.firings += firings - 1

    def record_block(self) -> None:
        self.blocked_events += 1

    def record_blocked_interval(self, task: str, cycles: int) -> None:
        """Attribute a finished blocked interval to the guarding task."""
        if cycles < 0:
            raise ValueError("blocked cycles must be >= 0")
        self.blocked_cycles += cycles
        self.blocked_by_task[task] = self.blocked_by_task.get(task, 0) + cycles

    def utilization(self, horizon_cycles: int) -> float:
        """Busy fraction over ``horizon_cycles`` (0..1)."""
        if horizon_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / horizon_cycles)
