"""The names the end-to-end benchmark wraps must exist where it looks.

``perfbench`` (see perfbench/README.md) instruments the program from the
outside.  Its :class:`~perfbench.tracer.Tracer` wraps every function and
method listed in ``perfbench.tracer.TARGETS``, and its
:class:`~perfbench.workloads.SimTap` wraps ``SpiSystem.run`` and
``MpiSystem.run``.  Both read methods from ``cls.__dict__``, so a target
that is deleted, renamed or only inherited makes every traced benchmark
run raise.  These tests install and uninstall both (perfbench is only
imported, never changed) so such a change fails here first.
"""

from __future__ import annotations

import importlib

import pytest

from perfbench.tracer import TARGETS, Tracer
from perfbench.workloads import SimTap
from repro.conformance import build_case, generate_spec
from repro.mpi.baseline import MpiSystem
from repro.spi import RECV_PREFIX, SEND_PREFIX, SpiSystem


def _resolve(module_name: str, attr: str):
    """The object a target names, looked up the way perfbench does."""
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        return getattr(owner, cls_name).__dict__[method]
    return getattr(owner, attr)


def _run_both() -> int:
    """Run one case on both layers; returns the computation firings
    the two runs make (every one goes through ``Actor.fire``)."""
    case = build_case(generate_spec(1))
    system = SpiSystem.compile(case.graph, case.partition)
    system.run(iterations=2)
    MpiSystem.compile(case.graph, case.partition).run(iterations=2)
    computations = sum(
        not origin.startswith((SEND_PREFIX, RECV_PREFIX))
        for entries in system.schedule.firing_script().values()
        for _, origin in entries
    )
    return 2 * 2 * computations  # two layers, two iterations each


@pytest.mark.parametrize(
    "module_name,attr",
    [(module_name, attr) for _, module_name, attr, _ in TARGETS],
    ids=[f"{module_name}:{attr}" for _, module_name, attr, _ in TARGETS],
)
def test_every_target_resolves(module_name, attr):
    target = _resolve(module_name, attr)
    assert callable(getattr(target, "__func__", target))


@pytest.mark.parametrize("cls", [SpiSystem, MpiSystem])
def test_run_and_compile_are_defined_in_each_system_class(cls):
    assert "run" in cls.__dict__
    assert isinstance(cls.__dict__["compile"], classmethod)


def test_tracer_installs_spans_and_uninstalls():
    originals = [(m, a, _resolve(m, a)) for _, m, a, _ in TARGETS]
    tracer = Tracer()
    tracer.install()
    try:
        for module_name, attr, original in originals:
            assert _resolve(module_name, attr) is not original
        firings = _run_both()
    finally:
        tracer.uninstall()
    for module_name, attr, original in originals:
        assert _resolve(module_name, attr) is original
    assert tracer.calls["spi.run"] == 1
    assert tracer.calls["spi.compile"] == 1
    assert tracer.calls["mpi"] == 2  # MpiSystem.compile + MpiSystem.run
    assert tracer.calls["platform.kernel"] == 2
    assert tracer.counts["mpi.runs"] == 1
    # a firing program that skipped Actor.fire would zero apps.fire_s
    assert firings > 0
    assert tracer.calls["apps.fire"] == firings


def test_sim_tap_counts_both_layers_and_uninstalls():
    runs = {cls: cls.__dict__["run"] for cls in (SpiSystem, MpiSystem)}
    tap = SimTap()
    tap.install()
    try:
        case = build_case(generate_spec(1))
        spi = SpiSystem.compile(case.graph, case.partition).run(iterations=2)
        mpi = MpiSystem.compile(case.graph, case.partition).run(iterations=2)
    finally:
        tap.uninstall()
    for cls, run in runs.items():
        assert cls.__dict__["run"] is run
    cycles, wire_bytes, firings = tap.read()
    assert cycles == spi.cycles + mpi.cycles
    assert wire_bytes == spi.wire_bytes + mpi.wire_bytes
    assert firings == sum(
        pe.firings for result in (spi, mpi) for pe in result.pe_stats
    )
