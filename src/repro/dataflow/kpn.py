"""Restricted Kahn process networks on top of SPI (paper §3.1).

The paper: "the current version of SPI ... cannot be used in conjunction
with arbitrary KPN representations.  However, integration of SPI with
KPN — especially, restricted versions of KPN that are more amenable to
formal analysis as demonstrated by tools such as Compaan — is a
promising direction for future work."

This module implements that integration for the restricted class that
the VTS model supports: **message-structured Kahn processes**.  A
process repeatedly executes one *step*: it performs a blocking read of
one (variable-size, bounded) message per input channel, computes, and
writes one (variable-size, bounded) message per output channel.  This
class keeps KPN's blocking-read determinism — the SPI runtime's firing
guards *are* the blocking reads — while staying analysable: the network
converts to a bounded-dynamic dataflow graph, VTS gives static buffer
bounds, and the whole SPI methodology (scheduling, protocol selection,
resynchronization) applies unchanged.

What is *not* expressible — and rejected with a clear error — is
unbounded-rate traffic, which is exactly the "general KPN" the paper
excludes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.dataflow.dynamic import DynamicRate
from repro.dataflow.graph import DataflowGraph, GraphError

__all__ = ["KpnChannelSpec", "KpnProcess", "KpnNetwork"]


@dataclass(frozen=True)
class KpnChannelSpec:
    """Rate/size bounds of one KPN channel (required — this is the
    restriction that makes the network SPI-compatible)."""

    max_tokens_per_step: int
    token_bytes: int = 4
    min_tokens_per_step: int = 0

    def __post_init__(self) -> None:
        if self.max_tokens_per_step < 1:
            raise GraphError(
                "a KPN channel needs max_tokens_per_step >= 1; an "
                "unbounded channel would be general KPN, which SPI "
                "cannot analyse (paper §3.1)"
            )
        if not 0 <= self.min_tokens_per_step <= self.max_tokens_per_step:
            raise GraphError("need 0 <= min <= max tokens per step")
        if self.token_bytes < 1:
            raise GraphError("token_bytes must be >= 1")

    @property
    def rate(self) -> DynamicRate:
        return DynamicRate(
            self.max_tokens_per_step, minimum=self.min_tokens_per_step
        )


class KpnProcess:
    """One Kahn process: per-step blocking reads, compute, writes.

    ``step(step_index, inputs) -> outputs`` receives one message (a
    list of raw tokens) per input channel and must return one message
    per output channel, each within its channel's declared bounds.
    ``work_cycles`` is the execution-time model (int, or a callable on
    ``(step_index, inputs)``).
    """

    def __init__(
        self,
        name: str,
        step: Optional[Callable[[int, Dict[str, list]], Dict[str, list]]] = None,
        work_cycles=1,
    ) -> None:
        if not name:
            raise GraphError("process name must be non-empty")
        self.name = name
        self.step = step
        self.work_cycles = work_cycles
        self.inputs: Dict[str, KpnChannelSpec] = {}
        self.outputs: Dict[str, KpnChannelSpec] = {}

    def reads(self, port: str, spec: KpnChannelSpec) -> "KpnProcess":
        if port in self.inputs or port in self.outputs:
            raise GraphError(f"duplicate port {port!r} on {self.name!r}")
        self.inputs[port] = spec
        return self

    def writes(self, port: str, spec: KpnChannelSpec) -> "KpnProcess":
        if port in self.inputs or port in self.outputs:
            raise GraphError(f"duplicate port {port!r} on {self.name!r}")
        self.outputs[port] = spec
        return self


class KpnNetwork:
    """A network of restricted Kahn processes, convertible to dataflow."""

    def __init__(self, name: str = "kpn") -> None:
        self.name = name
        self._processes: Dict[str, KpnProcess] = {}
        self._channels: List[Tuple[str, str, str, str]] = []

    def add(self, process: KpnProcess) -> KpnProcess:
        if process.name in self._processes:
            raise GraphError(f"duplicate process {process.name!r}")
        self._processes[process.name] = process
        return process

    def connect(
        self,
        producer: str,
        out_port: str,
        consumer: str,
        in_port: str,
    ) -> None:
        """Wire ``producer.out_port`` to ``consumer.in_port``.

        Both endpoints must declare the *same* channel spec — a Kahn
        channel has one type; mismatched bounds are a modelling error.
        """
        src = self._processes.get(producer)
        snk = self._processes.get(consumer)
        if src is None or snk is None:
            raise GraphError(
                f"unknown process in channel {producer}.{out_port} -> "
                f"{consumer}.{in_port}"
            )
        if out_port not in src.outputs:
            raise GraphError(
                f"{producer!r} does not write port {out_port!r}"
            )
        if in_port not in snk.inputs:
            raise GraphError(f"{consumer!r} does not read port {in_port!r}")
        if src.outputs[out_port] != snk.inputs[in_port]:
            raise GraphError(
                f"channel {producer}.{out_port} -> {consumer}.{in_port}: "
                f"endpoint specs differ (a Kahn channel has one type)"
            )
        self._channels.append((producer, out_port, consumer, in_port))


    def to_dataflow_graph(self) -> DataflowGraph:
        """Convert to a bounded-dynamic dataflow graph.

        Each process becomes an actor whose ports are dynamic with the
        channels' declared bounds; ``SpiSystem.compile`` then performs
        the VTS conversion and everything downstream.  Blocking-read
        semantics are preserved: an actor fires only when one message is
        available on *every* input, exactly a Kahn step.
        """
        graph = DataflowGraph(self.name)
        for process in self._processes.values():

            def kernel(step_index, inputs, _process=process):
                if _process.step is None:
                    return {
                        port: [None] * spec.min_tokens_per_step
                        if spec.min_tokens_per_step
                        else [None]
                        for port, spec in _process.outputs.items()
                    }
                outputs = _process.step(step_index, inputs)
                missing = set(_process.outputs) - set(outputs)
                if missing:
                    raise GraphError(
                        f"process {_process.name!r} step {step_index} did "
                        f"not write channels {sorted(missing)}"
                    )
                return outputs

            actor = graph.actor(
                process.name,
                kernel=kernel,
                cycles=process.work_cycles,
                params={"kpn_process": process.name},
            )
            for port, spec in process.inputs.items():
                actor.add_input(
                    port, rate=spec.rate, token_bytes=spec.token_bytes
                )
            for port, spec in process.outputs.items():
                actor.add_output(
                    port, rate=spec.rate, token_bytes=spec.token_bytes
                )

        connected_inputs = set()
        connected_outputs = set()
        for producer, out_port, consumer, in_port in self._channels:
            graph.connect(
                (graph.get_actor(producer), out_port),
                (graph.get_actor(consumer), in_port),
            )
            connected_outputs.add((producer, out_port))
            connected_inputs.add((consumer, in_port))

        for process in self._processes.values():
            for port in process.inputs:
                if (process.name, port) not in connected_inputs:
                    raise GraphError(
                        f"input {process.name}.{port} is not connected; "
                        f"a Kahn process cannot read from nowhere"
                    )
            for port in process.outputs:
                if (process.name, port) not in connected_outputs:
                    graph.mark_interface(
                        graph.get_actor(process.name).port(port)
                    )

        graph.validate()
        return graph
