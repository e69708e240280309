"""In-memory span tracer installed around the public functions of each layer.

The tracer wraps functions from the benchmark's side: it rebinds every
name under which a target function is reachable (the defining module,
re-exporting packages and every module that imported it by name), so a
caller finds the wrapper in whatever namespace it looks the function
up from.  Nothing in ``src/`` is edited, and :meth:`Tracer.uninstall`
puts every original binding back.

A span records name, start, end, parent and the id of the unit it ran
in.  Self time is a span's duration minus the time of its child spans
(calls nest, so children never overlap).  Very frequent leaf calls
(actor firings, cycle models, memoised min-delay lookups) are charged
to their parent and to per-name totals but not kept one by one, which
bounds memory on long runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, module, qualified attribute, hot) — ``hot`` spans are
#: aggregated instead of recorded one by one
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("apps.fire", "repro.dataflow.graph", "Actor.fire", True),
    ("apps.cycle_model", "repro.dataflow.graph", "Actor.execution_cycles", True),
    ("platform.kernel", "repro.platform.simulator", "Simulator.run", False),
    ("spi.compile", "repro.spi.runtime", "SpiSystem.compile", False),
    ("spi.run", "repro.spi.runtime", "SpiSystem.run", False),
    ("dataflow.vts_convert", "repro.dataflow.vts", "vts_convert", False),
    ("dataflow.repetitions", "repro.dataflow.sdf", "repetitions_vector", False),
    ("dataflow.hsdf", "repro.dataflow.hsdf", "hsdf_expand", False),
    ("mapping.schedule", "repro.mapping.selftimed", "build_selftimed_schedule", False),
    ("mapping.sync_graph", "repro.mapping.ipc_graph", "build_ipc_graph", False),
    ("mapping.sync_graph", "repro.mapping.sync_graph", "derive_sync_graph",
     False),
    ("mapping.min_delay", "repro.mapping.timed_graph",
     "TimedGraph.min_delay_paths", True),
    ("mapping.resync", "repro.mapping.resync", "resynchronize", False),
    ("mapping.mcm", "repro.mapping.mcm", "maximum_cycle_mean_result", False),
    ("mapping.mcm", "repro.mapping.mcm", "maximum_cycle_mean", False),
    ("service.campaign", "repro.service.campaign", "run_service_campaign", False),
    ("service.unit", "repro.service.registry", "run_operation", False),
    ("service.cache", "repro.service.cache", "AnalysisCache.key_for", False),
    ("service.cache", "repro.service.cache", "AnalysisCache.structure_key_for", False),
    ("service.cache", "repro.service.cache", "AnalysisCache.repetitions", False),
    ("service.cache", "repro.service.cache", "AnalysisCache.mcm", False),
    ("service.cache", "repro.service.cache", "AnalysisCache.channel_decisions", False),
    ("service.cache", "repro.service.cache",
     "AnalysisCache.store_channel_decisions", False),
    ("service.cache", "repro.service.cache", "AnalysisCache.period_hint", False),
    ("service.cache", "repro.service.cache", "AnalysisCache.store_period", False),
    ("service.cache", "repro.service.cache", "AnalysisCache.resynchronize", False),
    ("conformance.generate", "repro.conformance.generator", "generate_spec", False),
    ("conformance.build_case", "repro.conformance.spec", "build_case", False),
    ("conformance.reference", "repro.conformance.reference", "run_reference", False),
    ("conformance.oracles", "repro.conformance.oracles", "run_oracle_stack", False),
    ("conformance.shrink", "repro.conformance.shrinker", "shrink", False),
    ("mpi", "repro.mpi.baseline", "MpiSystem.compile", False),
    ("mpi", "repro.mpi.baseline", "MpiSystem.run", False),
    ("observability.metrics", "repro.observability.exporters",
     "build_metrics_document", False),
    ("observability.metrics", "repro.observability.exporters",
     "validate_metrics", False),
    ("observability.export", "repro.observability.perfetto", "chrome_trace", False),
    ("analysis.summary", "repro.analysis.report", "render_metrics_summary", False),
)

#: span names whose every call opens a new unit
UNIT_SPANS = ("unit", "service.unit")


@dataclass
class _Frame:
    name: str
    start: int
    record: Optional[int]
    child_ns: int = 0


@dataclass
class Tracer:
    """Span stack plus the recorded spans and per-name totals.

    ``recorded`` holds ``[name, start_ns, end_ns, parent, unit,
    child_ns]`` lists; ``parent`` indexes ``recorded`` (``-1`` for a
    root).  ``self_ns``/``incl_ns``/``calls`` total every span, hot or
    recorded, by name; ``counts`` holds the layers' public counters.
    """

    recorded: List[list] = field(default_factory=list)
    self_ns: Dict[str, int] = field(default_factory=dict)
    incl_ns: Dict[str, int] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    _stack: List[_Frame] = field(default_factory=list)
    _unit: Optional[int] = None
    _next_unit: int = 0
    _restore: List[Tuple[object, str, object]] = field(default_factory=list)

    # -- spans -------------------------------------------------------------

    def enter(self, name: str, hot: bool = False) -> _Frame:
        if name in UNIT_SPANS and self._unit is None:
            self._unit = self._next_unit
            self._next_unit += 1
        record = None
        if not hot:
            record = len(self.recorded)
            parent = next(
                (f.record for f in reversed(self._stack) if f.record is not None),
                -1,
            )
            self.recorded.append([name, 0, 0, parent, self._unit, 0])
        frame = _Frame(name, time.perf_counter_ns(), record)
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        duration = end - frame.start
        self.self_ns[frame.name] = (
            self.self_ns.get(frame.name, 0) + duration - frame.child_ns
        )
        self.incl_ns[frame.name] = self.incl_ns.get(frame.name, 0) + duration
        self.calls[frame.name] = self.calls.get(frame.name, 0) + 1
        if self._stack:
            self._stack[-1].child_ns += duration
        if frame.record is not None:
            entry = self.recorded[frame.record]
            entry[1], entry[2], entry[5] = frame.start, end, frame.child_ns
        if frame.name in UNIT_SPANS and not any(
            f.name in UNIT_SPANS for f in self._stack
        ):
            self._unit = None

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Copies of the running totals (diff two to get one pass)."""
        return {
            "self_ns": dict(self.self_ns),
            "incl_ns": dict(self.incl_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target (see :data:`TARGETS`) wherever it is bound."""
        _import_all("repro")
        hooks = _counter_hooks(self)
        for name, module_name, attr, hot in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        self._wrap(name, raw.__func__, hot, hooks.get(attr))
                    )
                else:
                    wrapped = self._wrap(name, raw, hot, hooks.get(attr))
                self._rebind(cls, method, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, hot, hooks.get(attr))
            modules = [
                m for key, m in list(sys.modules.items())
                if key == "repro" or key.startswith("repro.")
            ]
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def _rebind(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def _wrap(self, name: str, fn: Callable, hot: bool,
              hook: Optional[Callable]) -> Callable:
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write the recorded spans as JSON (start/end in ns)."""
        document = {
            "schema": "perfbench.spans/1",
            "fields": ["name", "start_ns", "end_ns", "parent", "unit",
                       "child_ns"],
            "spans": self.recorded,
            "aggregated": {
                name: {"calls": self.calls[name], "self_ns": self.self_ns[name]}
                for name in sorted(self.calls)
            },
        }
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))


def _import_all(package_name: str) -> None:
    """Import every submodule, so lazily imported ones get wrapped too."""
    package = importlib.import_module(package_name)
    for info in pkgutil.walk_packages(package.__path__, package_name + "."):
        importlib.import_module(info.name)


def _counter_hooks(tracer: Tracer) -> Dict[str, Callable]:
    """Per-target hooks that read each layer's public counters."""
    from repro.mapping.timed_graph import EdgeKind

    def simulator(args, _result) -> None:
        sim = args[0]
        tracer.count("platform.events", sim.events_processed)
        tracer.count("platform.parks", sim.parks)
        tracer.count("platform.wakeups", sim.total_wakeups)
        tracer.count("platform.spurious_wakeups", sim.spurious_wakeups)

    def spi_run(_args, result) -> None:
        tracer.count("spi.iterations", result.iterations)
        tracer.count("spi.data_messages", result.data_messages)
        tracer.count("spi.ack_messages", result.ack_messages)
        tracer.count("spi.resync_messages", result.resync_messages)

    def spi_compile(_args, system) -> None:
        tracer.count("mapping.sync_edges", len(system.sync_graph.edges))
        resync = system.resync_result
        if resync is not None:
            tracer.count(
                "mapping.acks_removed",
                sum(1 for e in resync.removed if e.kind == EdgeKind.ACK),
            )
            tracer.count("mapping.resync_added", len(resync.added))

    def hsdf(_args, graph) -> None:
        tracer.count("dataflow.hsdf_tasks", len(graph.actors))

    def mpi_run(_args, _result) -> None:
        tracer.count("mpi.runs", 1)

    return {
        "Simulator.run": simulator,
        "SpiSystem.run": spi_run,
        "SpiSystem.compile": spi_compile,
        "hsdf_expand": hsdf,
        "MpiSystem.run": mpi_run,
    }
