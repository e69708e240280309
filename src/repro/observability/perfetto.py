"""Chrome/Perfetto ``trace_event`` export of a recorded execution.

Converts a :class:`~repro.platform.trace.TraceRecorder` (plus the
optional message log of an :class:`~repro.observability.collector
.ObservabilityHub`) into the Trace Event Format JSON that both
``chrome://tracing`` and https://ui.perfetto.dev load directly:

* one named thread per PE carrying complete (``ph: "X"``) slices for
  every task execution interval;
* one async (``ph: "b"``/``"e"``) pair per inter-PE message on a
  dedicated "interconnect" process, so data, acknowledgment and
  resynchronization traffic shows up as arrows-in-flight between the
  moment a sender commits a message and its arrival.

Timestamps are microseconds (the format's unit); simulation cycles are
converted through ``clock_mhz``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, List, Optional

__all__ = ["PE_PID", "INTERCONNECT_PID", "chrome_trace"]

#: pid carrying the per-PE task tracks
PE_PID = 1
#: pid carrying the async message (arrow) tracks
INTERCONNECT_PID = 2


def chrome_trace(
    trace,
    messages: Optional[Iterable] = None,
    clock_mhz: float = 100.0,
    process_name: str = "SPI platform",
) -> Dict[str, object]:
    """Build a Trace Event Format document from a recorded run.

    ``trace`` is a :class:`~repro.platform.trace.TraceRecorder`, read
    through its plain :attr:`~repro.platform.trace.TraceRecorder.rows`;
    ``messages`` an optional iterable of :class:`~repro.observability
    .collector.MessageRecord`.  The result serialises with ``json.dump``
    and loads unmodified in Perfetto.
    """
    if clock_mhz <= 0:
        raise ValueError("clock_mhz must be positive")
    events: List[Dict[str, object]] = [
        {
            "ph": "M",
            "pid": PE_PID,
            "tid": 0,
            "ts": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    rows = trace.rows
    for pe in sorted(set(map(itemgetter(0), rows))):
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
    # cycles / clock_mhz is microseconds (the format's unit)
    events += [
        {
            "name": task,
            "cat": "task",
            "ph": "X",
            "ts": start / clock_mhz,
            "dur": (end - start) / clock_mhz,
            "pid": PE_PID,
            "tid": pe,
            "args": {"iteration": iteration},
        }
        for pe, task, start, end, iteration in rows
    ]

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
    # both events of a pair share one args dict
    for index, (channel, kind, src_pe, dst_pe, nbytes, requested, started,
                arrived) in enumerate(message_list):
        name = f"{kind}:{channel}"
        args = {
            "channel": channel,
            "kind": kind,
            "src_pe": src_pe,
            "dst_pe": dst_pe,
            "nbytes": nbytes,
            "queueing_cycles": started - requested,
        }
        events.append({
            "name": name, "cat": "message", "id": index,
            "pid": INTERCONNECT_PID, "tid": 0, "args": args,
            "ph": "b", "ts": started / clock_mhz,
        })
        events.append({
            "name": name, "cat": "message", "id": index,
            "pid": INTERCONNECT_PID, "tid": 0, "args": args,
            "ph": "e", "ts": arrived / clock_mhz,
        })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock_mhz": clock_mhz, "time_unit_cycles": True},
    }
