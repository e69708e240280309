"""The Chrome/Perfetto trace export round-trips and carries the
required trace_event keys."""

import json

import pytest

from repro.dataflow import DataflowGraph
from repro.mapping import Partition
from repro.observability import INTERCONNECT_PID, PE_PID, chrome_trace
from repro.spi import SpiSystem


@pytest.fixture(scope="module")
def run():
    graph = DataflowGraph("traced")
    a = graph.actor("A", cycles=10)
    b = graph.actor("B", cycles=20)
    a.add_output("o")
    b.add_input("i")
    graph.connect((a, "o"), (b, "i"))
    partition = Partition.manual(graph, {"A": 0, "B": 1})
    return SpiSystem.compile(graph, partition).run(
        iterations=4, trace=True, metrics=True
    )


@pytest.fixture(scope="module")
def document(run):
    # Round-trip through the serialised form: what Perfetto would load.
    return json.loads(
        json.dumps(chrome_trace(run.trace, run.message_log, clock_mhz=100.0))
    )


def test_top_level_shape(document):
    assert "traceEvents" in document
    assert document["traceEvents"]


def test_every_event_has_required_keys(document):
    for event in document["traceEvents"]:
        assert "ph" in event
        assert "ts" in event
        assert "pid" in event


def test_task_slices_are_complete_events(document, run):
    slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == len(run.trace.events)
    for event in slices:
        assert event["pid"] == PE_PID
        assert event["dur"] >= 0
        assert "iteration" in event["args"]


def test_one_named_thread_per_pe(document, run):
    names = {
        (e["pid"], e["tid"]): e["args"]["name"]
        for e in document["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    for pe in {e.pe for e in run.trace.events}:
        assert names[(PE_PID, pe)] == f"PE{pe}"


def test_messages_become_paired_async_events(document, run):
    begins = [e for e in document["traceEvents"] if e["ph"] == "b"]
    ends = [e for e in document["traceEvents"] if e["ph"] == "e"]
    assert len(begins) == len(run.message_log)
    assert len(ends) == len(run.message_log)
    by_id = {e["id"]: e for e in begins}
    for end in ends:
        begin = by_id[end["id"]]
        assert begin["pid"] == INTERCONNECT_PID
        assert end["ts"] >= begin["ts"]
        assert begin["args"]["src_pe"] != begin["args"]["dst_pe"]


def test_timestamps_scale_with_clock(run):
    fast = chrome_trace(run.trace, clock_mhz=200.0)
    slow = chrome_trace(run.trace, clock_mhz=100.0)
    fast_ts = [e["ts"] for e in fast["traceEvents"] if e["ph"] == "X"]
    slow_ts = [e["ts"] for e in slow["traceEvents"] if e["ph"] == "X"]
    for f, s in zip(fast_ts, slow_ts):
        assert f == pytest.approx(s / 2)


def test_invalid_clock_rejected(run):
    with pytest.raises(ValueError):
        chrome_trace(run.trace, clock_mhz=0)


def event_object_chrome_trace(trace, messages, clock_mhz, process_name):
    """The export as it was built: from ``TraceEvent`` objects, through
    a per-value unit conversion."""

    def to_us(cycles):
        return cycles / clock_mhz

    events = [
        {
            "ph": "M",
            "pid": PE_PID,
            "tid": 0,
            "ts": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    for pe in sorted({e.pe for e in trace.events}):
        events.append(
            {
                "ph": "M",
                "pid": PE_PID,
                "tid": pe,
                "ts": 0,
                "name": "thread_name",
                "args": {"name": f"PE{pe}"},
            }
        )
    for event in trace.events:
        events.append(
            {
                "name": event.task,
                "cat": "task",
                "ph": "X",
                "ts": to_us(event.start),
                "dur": to_us(event.end - event.start),
                "pid": PE_PID,
                "tid": event.pe,
                "args": {"iteration": event.iteration},
            }
        )
    message_list = list(messages) if messages is not None else []
    if message_list:
        events.append(
            {
                "ph": "M",
                "pid": INTERCONNECT_PID,
                "tid": 0,
                "ts": 0,
                "name": "process_name",
                "args": {"name": "interconnect"},
            }
        )
    for index, record in enumerate(message_list):
        common = {
            "name": f"{record.kind}:{record.channel}",
            "cat": "message",
            "id": index,
            "pid": INTERCONNECT_PID,
            "tid": 0,
            "args": {
                "channel": record.channel,
                "kind": record.kind,
                "src_pe": record.src_pe,
                "dst_pe": record.dst_pe,
                "nbytes": record.nbytes,
                "queueing_cycles": record.queueing_cycles,
            },
        }
        events.append({**common, "ph": "b", "ts": to_us(record.started)})
        events.append({**common, "ph": "e", "ts": to_us(record.arrived)})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock_mhz": clock_mhz, "time_unit_cycles": True},
    }


@pytest.fixture(scope="module")
def pf_run():
    from repro.apps.particle_filter import (
        CrackGrowthModel,
        build_particle_filter_graph,
        simulate_crack_history,
    )

    model = CrackGrowthModel()
    _, observations = simulate_crack_history(model, steps=10, seed=3)
    system = build_particle_filter_graph(
        model, observations, n_particles=20, n_pes=2, seed=5
    )
    return SpiSystem.compile(system.graph, system.partition).run(
        iterations=10, trace=True, metrics=True, steady_state="off"
    )


@pytest.mark.parametrize("clock_mhz", [100.0, 33.3, 7])
@pytest.mark.parametrize("with_messages", [True, False])
def test_document_equals_the_event_object_export(pf_run, clock_mhz, with_messages):
    messages = pf_run.message_log if with_messages else None
    assert pf_run.message_log
    built = chrome_trace(pf_run.trace, messages, clock_mhz=clock_mhz,
                         process_name="pf")
    expected = event_object_chrome_trace(pf_run.trace, messages, clock_mhz, "pf")
    assert built == expected
    # same key order too, so the serialised file is byte-identical
    assert json.dumps(built) == json.dumps(expected)
