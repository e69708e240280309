"""Compiled execution fast-lane: flat firing scripts.

:class:`CompiledFiring` is a drop-in replacement for
:class:`repro.spi.actors.ComputationTask` built from a
:meth:`repro.mapping.selftimed.SelfTimedSchedule.firing_script` entry.
When rates are static the task's wait chain is pre-resolved at compile
time into flat ``(fifo, rate)`` lists, and a static integer cycle model
short-circuits the callable dispatch — the guard check that runs on
every park/wake round becomes two tuple walks instead of repeated
port-table construction.  Firing semantics (consumption order, kernel
invocation, production order) are identical by construction; the
conformance tier A/Bs the two task classes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["CompiledStats", "CompiledFiring"]


class CompiledStats:
    """Shared counters of one run's compiled fast-lane."""

    __slots__ = ("compiled_firings", "script_tasks")

    def __init__(self) -> None:
        #: firings executed through CompiledFiring tasks
        self.compiled_firings = 0
        #: CompiledFiring tasks constructed for the run
        self.script_tasks = 0


class CompiledFiring:
    """One computation actor's firing, with a pre-resolved wait chain.

    Construction mirrors :class:`repro.spi.actors.ComputationTask`
    (same ``inputs``/``outputs`` fifo maps); the port tables are
    flattened once here instead of being rebuilt on every guard check.

    Under a batched (blocked) schedule (``batch_counts`` from a
    :class:`repro.spi.actors.BatchSchedule`) one task execution runs
    the macro-pass burst of firings atomically at the PE class's
    amortized dispatch cost — token streams stay identical to
    sequential execution.
    """

    __slots__ = (
        "actor",
        "name",
        "inputs",
        "outputs",
        "firing_index",
        "batch_counts",
        "pe_class",
        "_pe",
        "_pass",
        "occurrences",
        "_executions",
        "_needs",
        "_emits",
        "_static_cycles",
        "_staged",
        "_stats",
    )

    def __init__(
        self,
        actor,
        inputs: Dict[str, object],
        outputs: Dict[str, object],
        stats: Optional[CompiledStats] = None,
        batch_counts=None,
        pe_class=None,
        pe=None,
    ) -> None:
        from repro.platform.pe import GPP
        from repro.spi.actors import normalize_port_fifos

        self.actor = actor
        self.name = f"fire:{actor.name}"
        self.inputs = normalize_port_fifos(inputs)
        self.outputs = normalize_port_fifos(outputs)
        self.firing_index = 0
        self.batch_counts = list(batch_counts) if batch_counts else None
        self.pe_class = pe_class if pe_class is not None else GPP
        self._pe = pe
        self._pass = 0
        self.occurrences = 1  # entries per macro-pass; set by the runtime
        self._executions = 0
        #: (port name, ((fifo, rate), ...) branches, connection) per
        #: connected input, in port order; branches in branch_index order
        self._needs = tuple(
            (
                port.name,
                tuple(
                    (fifo, fifo.edge.cons_rate)
                    for fifo in self.inputs[port.name]
                ),
                self.inputs[port.name][0].edge.connection,
            )
            for port in actor.input_ports
            if port.name in self.inputs
        )
        #: (port name, ((fifo, span), ...)) per connected output, in port
        #: order; span is a scatter branch's (start, stop) slice or None
        self._emits = tuple(
            (
                port.name,
                tuple(
                    (fifo, self._branch_span(fifo.edge))
                    for fifo in self.outputs[port.name]
                ),
            )
            for port in actor.output_ports
            if port.name in self.outputs
        )
        cycles = actor.cycles
        self._static_cycles = (
            cycles if isinstance(cycles, int) and cycles >= 0 else None
        )
        self._staged: Optional[Dict[str, List]] = None
        self._stats = stats
        if stats is not None:
            stats.script_tasks += 1

    @staticmethod
    def _branch_span(edge) -> Optional[Tuple[int, int]]:
        connection = edge.connection
        if connection is not None and connection.kind == "scatter":
            return connection.branch_span(edge.branch_index)
        return None

    @property
    def burst(self) -> int:
        """Logical firings this execution runs atomically."""
        if self.batch_counts is None:
            return 1
        return self.batch_counts[min(self._pass, len(self.batch_counts) - 1)]

    def ready(self, now: int) -> bool:
        burst = 1 if self.batch_counts is None else self.burst
        for _, branches, _ in self._needs:
            for fifo, rate in branches:
                if len(fifo.tokens) < burst * rate:
                    return False
        return True

    def blocked_reason(self, now: int) -> Optional[str]:
        burst = self.burst
        starved = [
            f"{fifo.edge.name!r} "
            f"(has {len(fifo.tokens)}, needs {burst * rate})"
            for _, branches, _ in self._needs
            for fifo, rate in branches
            if len(fifo.tokens) < burst * rate
        ]
        if starved:
            return "starved on " + ", ".join(starved)
        return None

    def wait_on(self, now: int) -> List:
        burst = self.burst
        return [
            fifo.waitset
            for _, branches, _ in self._needs
            for fifo, rate in branches
            if len(fifo.tokens) < burst * rate
        ]

    def _pop_one(self) -> Dict[str, List]:
        consumed: Dict[str, List] = {}
        for port_name, branches, connection in self._needs:
            if len(branches) == 1 and (
                connection is None or connection.kind != "reduce"
            ):
                fifo, rate = branches[0]
                consumed[port_name] = fifo.pop(rate)
            else:
                consumed[port_name] = connection.assemble(
                    [fifo.pop(rate) for fifo, rate in branches]
                )
        return consumed

    def start(self, now: int) -> int:
        if self.batch_counts is None and not self.pe_class.is_accelerator:
            # classic fast path: one firing, native cost
            consumed = self._pop_one()
            self._staged = consumed
            if self._stats is not None:
                self._stats.compiled_firings += 1
            if self._static_cycles is not None:
                return self._static_cycles
            return self.actor.execution_cycles(self.firing_index, consumed)
        burst = self.burst
        staged: List[Dict[str, List]] = []
        native: List[int] = []
        for i in range(burst):
            consumed = self._pop_one()
            staged.append(consumed)
            if self._static_cycles is not None:
                native.append(self._static_cycles)
            else:
                native.append(
                    self.actor.execution_cycles(self.firing_index + i, consumed)
                )
        self._staged = staged
        if self._stats is not None:
            self._stats.compiled_firings += burst
        if burst > 1 and self._pe is not None:
            self._pe.record_batched_dispatch(
                burst, self.pe_class.dispatch_cycles_saved(burst)
            )
        return self.pe_class.batch_cycles(native)

    def _fire_one(self, consumed: Dict[str, List]) -> None:
        produced = self.actor.fire(self.firing_index, consumed)
        for port_name, branches in self._emits:
            values = produced[port_name]
            for fifo, span in branches:
                if span is None:
                    fifo.push(list(values))
                else:
                    fifo.push(list(values[span[0]:span[1]]))
        self.firing_index += 1

    def finish(self, now: int) -> None:
        assert self._staged is not None
        staged = self._staged
        self._staged = None
        if isinstance(staged, dict):
            self._fire_one(staged)
            return
        for consumed in staged:
            self._fire_one(consumed)
        # advance only after the last occurrence in the program pass
        # (actors with repetitions > 1 occupy several entries)
        self._executions += 1
        if self._executions >= self.occurrences:
            self._executions = 0
            self._pass += 1
