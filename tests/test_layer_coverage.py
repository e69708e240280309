"""Every layer the benchmark traces keeps doing its work under its name.

``perfbench``'s :class:`~perfbench.tracer.Tracer` charges each layer's
time to the functions it wraps (``perfbench.tracer.TARGETS``).  A change
that moves a layer's work off its wrapped name leaves the name
resolvable, so ``tests/test_perfbench_contract.py`` still passes, but
the layer's per-layer metric then reads 0 although the work still runs.
These tests run one conformance case through the oracle stack and one
small fig. 7 unit under the tracer and check that every layer each of
them runs is called at least once.

``dataflow.hsdf`` and ``mapping.min_delay`` already read 0: compiles
stopped calling ``hsdf_expand`` and ``TimedGraph.min_delay_paths``
(ROADMAP item 1 fixes the two stale metrics).  They are listed here as
known-zero, so the test says when that changes.
"""

import importlib

import pytest

from perfbench.tracer import Tracer

#: spans whose wrapped functions no compile or run calls any more
KNOWN_ZERO = ("dataflow.hsdf", "mapping.min_delay")

COMPILE = (
    "dataflow.repetitions",
    "dataflow.vts_convert",
    "mapping.schedule",
    "mapping.sync_graph",
    "mapping.resync",
    "mapping.mcm",
    "spi.compile",
)
RUN = ("apps.fire", "apps.cycle_model", "platform.kernel", "spi.run")


def _traced(body):
    tracer = Tracer()
    tracer.install()
    try:
        body()
    finally:
        tracer.uninstall()
    return tracer


def _module(name):
    # looked up after install, so the call goes through the wrappers
    return importlib.import_module(name)


def _oracle_case():
    conformance = _module("repro.conformance")
    cache = _module("repro.service").AnalysisCache()
    # seed 28 is VTS-converted and compiles a resynchronized channel
    case = conformance.build_case(conformance.generate_spec(28))
    report = _module("repro.conformance.oracles").run_oracle_stack(
        case, cache=cache
    )
    assert report.ok


def _fig7_unit():
    pf = _module("repro.apps.particle_filter")
    model = pf.CrackGrowthModel()
    _, observations = pf.simulate_crack_history(model, steps=3, seed=1)
    system = pf.build_particle_filter_graph(
        model, observations, n_particles=20, n_pes=2, seed=2
    )
    run = _module("repro.spi").SpiSystem.compile(
        system.graph, system.partition
    ).run(iterations=3, metrics=True, trace=True, steady_state="off")
    _module("repro.observability").chrome_trace(
        run.trace, run.message_log, clock_mhz=100
    )
    _module("repro.analysis").render_metrics_summary(run.metrics)


SCENARIOS = {
    "oracle_case": (
        _oracle_case,
        COMPILE + RUN + (
            "conformance.generate",
            "conformance.build_case",
            "conformance.reference",
            "conformance.oracles",
            "mpi",
            "service.cache",
        ),
    ),
    "fig7_unit": (
        _fig7_unit,
        COMPILE + RUN + (
            "observability.metrics",
            "observability.export",
            "analysis.summary",
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_layer_it_runs_is_called(name):
    body, layers = SCENARIOS[name]
    tracer = _traced(body)
    silent = [layer for layer in layers if not tracer.calls.get(layer)]
    assert not silent, f"{name}: no call reached {silent}"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_known_zero_layers_stay_zero(name):
    body, _ = SCENARIOS[name]
    tracer = _traced(body)
    assert [layer for layer in KNOWN_ZERO if tracer.calls.get(layer)] == []
