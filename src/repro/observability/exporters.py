"""Assemble, validate and write the run-level observability artefacts.

Two documents leave a simulated run:

* the **metrics JSON** (:func:`build_metrics_document`) — a flat,
  versioned snapshot of everything measured: simulator kernel counters,
  per-PE busy/blocked cycles with blocked-on-which-task attribution,
  per-channel traffic and occupancy against the compile-time bound
  ``B(e)``, transport queueing/contention, sync-token pools, and the
  data-vs-synchronization wire-byte split;
* the **Chrome trace JSON** (:mod:`repro.observability.perfetto`) —
  the same run as a timeline.

:func:`validate_metrics` is the schema gate the tests and the CI
benchmark-smoke job run against every produced document.

Metrics JSON schema (``repro.metrics/1``)::

    {
      "schema": "repro.metrics/1",
      "run": {"cycles", "iterations", "iteration_period_cycles",
              "execution_time_us", "mcm_bound_cycles",
              "critical_cycle":              # MCM witness (empty tasks =
                {"tasks", "total_cycles",    #  acyclic or witness-less
                 "total_delay"},             #  legacy cache entry)
              "batch"},                      # blocking factor (1 = unbatched)
      "simulator": {"events_processed", "parks", "targeted_wakeups",
                    "spurious_wakeups", "total_wakeups",
                    "steady_state_detected_at",
                    "extrapolated_iterations",
                    "batched_firings",       # firings run in burst dispatches
                    "batch_dispatches",      # dispatches covering > 1 firing
                    "amortized_dispatch_cycles_saved"},
      "pes": [{"index", "name", "busy_cycles", "blocked_cycles",
               "firings", "blocked_events", "utilization",
               "pe_class",                   # "gpp" | "accelerator"
               "batched_firings", "batch_dispatches",
               "amortized_dispatch_cycles_saved",
               "blocked_by_task": {task: cycles}}],
      "channels": [{"name", "protocol", "src_pe", "dst_pe",
                    "bound_messages",        # B(e), compile-time
                    "physical_slots",        # B(e) + batch in-flight slots
                    "occupancy_high_water_messages",
                    "capacity_bytes", "occupancy_high_water_bytes",
                    "data_messages", "ack_messages", "data_bytes",
                    "header_bytes", "ack_bytes",
                    "full_stall_cycles", "empty_stall_cycles"}],
      "transport": {"type", "messages", "bytes",
                    "fast_path_deliveries",
                    "collective_messages",    # wire transfers of collectives
                    "fan_out_deliveries",     # per-consumer deliveries
                    "wire_bytes_saved",       # logical - wire (shared payload)
                    "channels": [{"channel", "messages", "bytes",
                                  "queueing_cycles", "contention_cycles"}]},
      "sync_pools": [{"name", "messages_sent", "high_water"}],
      "wire_byte_split": {kind: bytes},
      "counters": <MetricsRegistry.as_dict()>
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from repro.observability.metrics import METRICS_SCHEMA

__all__ = [
    "MetricsValidationError",
    "build_metrics_document",
    "validate_metrics",
    "write_json",
]


class MetricsValidationError(ValueError):
    """A metrics document violates its schema or a static bound."""


def _channel_stall_cycles(pes, task_names) -> int:
    """Total blocked cycles attributed to any of ``task_names``."""
    total = 0
    for pe in pes:
        for task, cycles in pe.blocked_by_task.items():
            base = task[5:] if task.startswith("sync:") else task
            if base in task_names:
                total += cycles
    return total


def build_metrics_document(
    system,
    result,
    hub,
    channels: Dict[str, object],
    transport,
    sim,
    sync_pools,
) -> Dict[str, object]:
    """Snapshot one finished run into the metrics JSON shape."""
    pes = result.pe_stats
    batch = getattr(result, "batch", 1)
    pe_entries: List[Dict[str, object]] = [
        {
            "index": pe.index,
            "name": pe.name,
            "busy_cycles": pe.busy_cycles,
            "blocked_cycles": pe.blocked_cycles,
            "firings": pe.firings,
            "blocked_events": pe.blocked_events,
            "utilization": pe.utilization(result.cycles),
            "pe_class": pe.pe_class.kind,
            "batched_firings": pe.batched_firings,
            "batch_dispatches": pe.batch_dispatches,
            "amortized_dispatch_cycles_saved": (
                pe.amortized_dispatch_cycles_saved
            ),
            "blocked_by_task": dict(pe.blocked_by_task),
        }
        for pe in pes
    ]

    channel_entries: List[Dict[str, object]] = []
    for name, plan in sorted(system.channel_plans.items()):
        channel = channels[name]
        stats = channel.stats
        channel_entries.append(
            {
                "name": name,
                "protocol": plan.protocol,
                "src_pe": plan.src_pe,
                "dst_pe": plan.dst_pe,
                "dynamic": plan.dynamic,
                "acks_enabled": plan.acks_enabled,
                "bound_messages": plan.capacity_messages,
                "physical_slots": plan.capacity_messages + batch,
                "occupancy_high_water_messages": channel.arrived_high_water,
                "capacity_bytes": channel.recv_buffer.capacity_bytes,
                "occupancy_high_water_bytes": (
                    channel.recv_buffer.high_water_bytes
                ),
                "message_payload_bytes": plan.message_payload_bytes,
                "data_messages": stats.data_messages,
                "ack_messages": stats.ack_messages,
                "data_bytes": stats.data_bytes,
                "header_bytes": stats.header_bytes,
                "ack_bytes": stats.ack_bytes,
                "full_stall_cycles": _channel_stall_cycles(
                    pes, {plan.send_actor}
                ),
                "empty_stall_cycles": _channel_stall_cycles(
                    pes, {plan.recv_actor}
                ),
            }
        )

    transport_entry: Dict[str, object] = {
        "type": type(transport).__name__,
        "messages": transport.messages,
        "bytes": transport.bytes,
        # point-to-point only; buses always schedule through the heap
        "fast_path_deliveries": getattr(
            transport, "fast_path_deliveries", 0
        ),
        "collective_messages": getattr(transport, "collective_messages", 0),
        "fan_out_deliveries": getattr(transport, "fan_out_deliveries", 0),
        "wire_bytes_saved": getattr(transport, "wire_bytes_saved", 0),
        "channels": [
            {
                "channel": str(key),
                "messages": traffic.messages,
                "bytes": traffic.bytes,
                "queueing_cycles": traffic.queueing_cycles,
                "contention_cycles": traffic.contention_cycles,
            }
            for key, traffic in sorted(
                transport.per_channel.items(), key=lambda kv: str(kv[0])
            )
        ],
    }

    mcm = system.mcm_result()
    return {
        "schema": METRICS_SCHEMA,
        "run": {
            "cycles": result.cycles,
            "iterations": result.iterations,
            "iteration_period_cycles": result.iteration_period_cycles,
            "execution_time_us": result.execution_time_us,
            "mcm_bound_cycles": mcm.value,
            "critical_cycle": {
                "tasks": list(mcm.cycle),
                "total_cycles": mcm.total_cycles,
                "total_delay": mcm.total_delay,
            },
            "batch": batch,
        },
        "simulator": {
            "events_processed": sim.events_processed,
            "parks": sim.parks,
            "targeted_wakeups": sim.targeted_wakeups,
            "spurious_wakeups": sim.spurious_wakeups,
            "total_wakeups": sim.total_wakeups,
            "steady_state_detected_at": result.steady_state_detected_at,
            "extrapolated_iterations": result.extrapolated_iterations,
            "batched_firings": result.batched_firings,
            "batch_dispatches": result.batch_dispatches,
            "amortized_dispatch_cycles_saved": (
                result.amortized_dispatch_cycles_saved
            ),
        },
        "pes": pe_entries,
        "channels": channel_entries,
        "transport": transport_entry,
        "sync_pools": [
            {
                "name": pool.name,
                "messages_sent": pool.messages_sent,
                "high_water": pool.high_water,
            }
            for pool in sync_pools
        ],
        "wire_byte_split": hub.byte_split() if hub is not None else {},
        "counters": (
            hub.registry.as_dict()
            if hub is not None
            else {"schema": METRICS_SCHEMA, "metrics": []}
        ),
    }


_REQUIRED_TOP_KEYS = (
    "schema",
    "run",
    "simulator",
    "pes",
    "channels",
    "transport",
    "sync_pools",
    "wire_byte_split",
    "counters",
)


def validate_metrics(document: Dict[str, object]) -> None:
    """Schema + soundness gate for one metrics document.

    Checks the document shape and — the paper-level invariant — that no
    channel's observed occupancy ever exceeded its compile-time bound:
    at most ``B(e)`` queued messages plus the one in flight through
    SPI_receive, and never more buffered bytes than the allocated
    capacity.  Raises :class:`MetricsValidationError` on any violation.
    """
    if document.get("schema") != METRICS_SCHEMA:
        raise MetricsValidationError(
            f"unknown metrics schema {document.get('schema')!r} "
            f"(expected {METRICS_SCHEMA})"
        )
    missing = [k for k in _REQUIRED_TOP_KEYS if k not in document]
    if missing:
        raise MetricsValidationError(f"missing top-level keys: {missing}")
    for channel in document["channels"]:
        name = channel.get("name", "<unnamed>")
        high = channel["occupancy_high_water_messages"]
        slots = channel["physical_slots"]
        if high > slots:
            raise MetricsValidationError(
                f"channel {name!r}: occupancy high-water {high} messages "
                f"exceeds the static bound of {slots} slots "
                f"(B(e) = {channel['bound_messages']} + the in-flight "
                f"burst)"
            )
        capacity = channel["capacity_bytes"]
        if (
            capacity is not None
            and channel["occupancy_high_water_bytes"] > capacity
        ):
            raise MetricsValidationError(
                f"channel {name!r}: buffered "
                f"{channel['occupancy_high_water_bytes']}B exceeds the "
                f"allocated {capacity}B"
            )
    for pe in document["pes"]:
        attributed = sum(pe["blocked_by_task"].values())
        if attributed > pe["blocked_cycles"]:
            raise MetricsValidationError(
                f"{pe['name']}: per-task blocked cycles ({attributed}) "
                f"exceed the PE total ({pe['blocked_cycles']})"
            )
    batch = document["run"].get("batch", 1)
    if batch < 1:
        raise MetricsValidationError(f"run: batch {batch} must be >= 1")
    witness = document["run"].get("critical_cycle")
    if witness is not None:
        bound = document["run"]["mcm_bound_cycles"]
        tasks = witness.get("tasks", [])
        total_cycles = witness.get("total_cycles", 0)
        total_delay = witness.get("total_delay", 0)
        if total_delay < 0 or total_cycles < 0:
            raise MetricsValidationError(
                f"run: negative critical-cycle sums ({total_cycles} "
                f"cycles / {total_delay} delay)"
            )
        if tasks and total_delay > 0:
            ratio = total_cycles / total_delay
            if abs(ratio - bound) > 1e-9 * max(1.0, abs(bound)):
                raise MetricsValidationError(
                    f"run: critical cycle ratio {ratio} disagrees with "
                    f"mcm_bound_cycles {bound}"
                )
        if tasks and total_delay == 0 and bound != float("inf"):
            raise MetricsValidationError(
                f"run: zero-delay critical cycle with finite MCM bound "
                f"{bound}"
            )
    sim = document["simulator"]
    batched = sim.get("batched_firings", 0)
    dispatches = sim.get("batch_dispatches", 0)
    saved = sim.get("amortized_dispatch_cycles_saved", 0)
    if dispatches == 0 and (batched or saved):
        raise MetricsValidationError(
            f"simulator: batched_firings {batched} / "
            f"amortized_dispatch_cycles_saved {saved} without any "
            f"batch_dispatches"
        )
    if batched < 2 * dispatches:
        raise MetricsValidationError(
            f"simulator: batched_firings {batched} below 2 x "
            f"batch_dispatches ({dispatches}) — every batched dispatch "
            f"covers at least two firings"
        )
    if batch == 1 and dispatches:
        raise MetricsValidationError(
            f"simulator: {dispatches} batch_dispatches in an unbatched "
            f"(batch = 1) run"
        )
    if sim.get("spurious_wakeups", 0) > sim.get("total_wakeups", 0):
        raise MetricsValidationError(
            f"simulator: spurious_wakeups {sim['spurious_wakeups']} "
            f"exceed total_wakeups {sim['total_wakeups']}"
        )
    detected = sim.get("steady_state_detected_at")
    extrapolated = sim.get("extrapolated_iterations", 0)
    if detected is None and extrapolated:
        raise MetricsValidationError(
            f"simulator: {extrapolated} extrapolated iterations without a "
            f"detected steady state"
        )
    iterations = document["run"].get("iterations")
    if iterations is not None and extrapolated >= iterations:
        raise MetricsValidationError(
            f"simulator: extrapolated_iterations {extrapolated} must be "
            f"< run iterations {iterations} (the tail always simulates)"
        )
    transport_doc = document["transport"]
    collective = transport_doc.get("collective_messages", 0)
    fan_out = transport_doc.get("fan_out_deliveries", 0)
    saved = transport_doc.get("wire_bytes_saved", 0)
    if collective == 0 and (fan_out or saved):
        raise MetricsValidationError(
            f"transport: fan_out_deliveries {fan_out} / wire_bytes_saved "
            f"{saved} without any collective_messages"
        )
    if fan_out < collective:
        raise MetricsValidationError(
            f"transport: fan_out_deliveries {fan_out} below "
            f"collective_messages {collective} (every transfer delivers "
            f"to at least one consumer)"
        )
    logical_bytes = sum(
        channel["data_bytes"] + channel["header_bytes"]
        for channel in document["channels"]
    )
    if saved > logical_bytes:
        raise MetricsValidationError(
            f"transport: wire_bytes_saved {saved} exceeds the logical "
            f"channel traffic {logical_bytes}B it is saved from"
        )


def write_json(path, document: Dict[str, object]) -> Path:
    """Serialise ``document`` to ``path`` (parents created), return it."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return target
