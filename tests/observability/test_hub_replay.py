"""The hub's link meters are a view of its message log.

:meth:`~repro.observability.collector.ObservabilityHub.message` only
appends a record; reading ``hub.registry`` replays the whole log into
the ``link.*`` meters of a fresh registry.  The byte split and the
``counters`` section of real runs are pinned to the values the hub gave
when it still updated its meters on every message.
"""

import hashlib
import json

from repro.observability import MessageRecord, ObservabilityHub


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_records_are_plain_tuples_with_derived_cycles():
    hub = ObservabilityHub()
    hub.message("e0", "data", 0, 1, 12, 3, 5, 9)
    (record,) = hub.messages
    assert type(record) is MessageRecord
    assert tuple(record) == ("e0", "data", 0, 1, 12, 3, 5, 9)
    assert record == ("e0", "data", 0, 1, 12, 3, 5, 9)
    assert (record.queueing_cycles, record.transfer_cycles) == (2, 4)


def _pf_run():
    from repro.apps.particle_filter import (
        CrackGrowthModel,
        build_particle_filter_graph,
        simulate_crack_history,
    )
    from repro.spi import SpiSystem

    model = CrackGrowthModel()
    _, observations = simulate_crack_history(model, steps=8, seed=3)
    app = build_particle_filter_graph(
        model, observations, n_particles=20, n_pes=2, seed=5
    )
    return SpiSystem.compile(app.graph, app.partition).run(
        iterations=8, metrics=True, steady_state="off"
    )


def _conformance_run(config=None):
    from repro.conformance import build_case, generate_spec
    from repro.spi import SpiSystem

    case = build_case(generate_spec(25))
    return SpiSystem.compile(case.graph, case.partition, config).run(
        iterations=4, metrics=True
    )


def test_byte_split_and_counters_of_real_runs_are_unchanged():
    from repro.spi import SpiConfig

    runs = {
        "pf": _pf_run(),
        "resync": _conformance_run(),
        "ubs": _conformance_run(
            SpiConfig(protocol_policy="always_ubs", resynchronize=False)
        ),
    }
    # written when every message updated its three meters as it was sent
    expected = {
        "pf": (
            {"data": 340},
            "660c61e57050563900a2dae0541e04e71f04af4dcb81496f421b88eb1ac5b54e",
        ),
        "resync": (
            {"data": 128, "resync": 16},
            "90eb0e6a3c28f345cac395e96585abdc39fca2d02be17b971f201d8822e728b2",
        ),
        "ubs": (
            {"data": 128, "ack": 32},
            "0873beb6d56ebdb6a4397747239509626a3e95457db69c2fb5dc5127d92ade2f",
        ),
    }
    for name, run in runs.items():
        split, counters = expected[name]
        assert run.metrics["wire_byte_split"] == split, name
        assert _digest(run.metrics["counters"]) == counters, name
