"""The hub's cached link meters record what per-message lookups did.

:meth:`~repro.observability.collector.ObservabilityHub.message`
resolves its three meters once per ``(channel, kind)``.  Replaying the
same messages through ``registry.counter``/``registry.histogram``
lookups on every message, as the hub used to, must leave an identical
registry: same metrics, same values, same registration order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import MetricsRegistry, ObservabilityHub


def per_call_replay(messages, registry=None):
    registry = registry if registry is not None else MetricsRegistry()
    for m in messages:
        registry.counter("link.messages", channel=m.channel, kind=m.kind).inc()
        registry.counter("link.bytes", channel=m.channel, kind=m.kind).inc(
            m.nbytes
        )
        registry.histogram("link.queueing_cycles", channel=m.channel).observe(
            m.queueing_cycles
        )
    return registry


def snapshot(registry):
    """Every metric in registration order, as plain dicts."""
    return [metric.as_dict() for metric in registry]


message_strategy = st.tuples(
    st.sampled_from(["e0", "e1", "wsum_0", "particles_0_to_1"]),
    st.sampled_from(["data", "ack", "resync"]),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 64),
    st.integers(0, 100),
    st.integers(0, 50),
    st.integers(1, 20),
).map(lambda m: (m[0], m[1], m[2], m[3], m[4], m[5], m[5] + m[6],
                 m[5] + m[6] + m[7]))


@given(messages=st.lists(message_strategy, max_size=60))
@settings(max_examples=150, deadline=None)
def test_cached_meters_equal_per_call_lookups(messages):
    hub = ObservabilityHub()
    for message in messages:
        hub.message(*message)
    assert [
        (m.channel, m.kind, m.src_pe, m.dst_pe, m.nbytes, m.requested,
         m.started, m.arrived)
        for m in hub.messages
    ] == messages
    assert snapshot(hub.registry) == snapshot(per_call_replay(hub.messages))
    assert hub.registry.as_dict() == per_call_replay(hub.messages).as_dict()


def test_spi_run_meters_equal_per_call_lookups():
    from repro.apps.particle_filter import (
        CrackGrowthModel,
        build_particle_filter_graph,
        simulate_crack_history,
    )
    from repro.spi import SpiSystem

    model = CrackGrowthModel()
    _, observations = simulate_crack_history(model, steps=8, seed=3)
    system = build_particle_filter_graph(
        model, observations, n_particles=20, n_pes=2, seed=5
    )
    run = SpiSystem.compile(system.graph, system.partition).run(
        iterations=8, metrics=True, steady_state="off"
    )
    counters = run.metrics["counters"]["metrics"]
    link = [m for m in counters if m["name"].startswith("link.")]
    expected = per_call_replay(run.message_log).as_dict()["metrics"]
    assert link and link == expected
