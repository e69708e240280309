"""The Signal Passing Interface: messages, protocols, library, runtime."""

from repro.spi.actors import LocalFifo, wire_ops
from repro.spi.channel import ChannelStats, SpiChannel
from repro.spi.library import (
    RECV_PREFIX,
    SEND_PREFIX,
    Lowering,
    SpiActorNames,
    SpiInsertion,
    insert_spi_actors,
    lower,
)
from repro.spi.message import (
    ACK_BYTES,
    DYNAMIC_HEADER_BYTES,
    STATIC_HEADER_BYTES,
    Message,
    MessageKind,
    make_data_message,
)
from repro.spi.protocols import ChannelFlowControl, Protocol, ProtocolConfig
from repro.spi.runtime import ChannelPlan, RunResult, SpiConfig, SpiSystem

__all__ = [
    "LocalFifo",
    "wire_ops",
    "ChannelStats",
    "SpiChannel",
    "RECV_PREFIX",
    "SEND_PREFIX",
    "Lowering",
    "lower",
    "SpiActorNames",
    "SpiInsertion",
    "insert_spi_actors",
    "ACK_BYTES",
    "DYNAMIC_HEADER_BYTES",
    "STATIC_HEADER_BYTES",
    "Message",
    "MessageKind",
    "make_data_message",
    "ChannelFlowControl",
    "Protocol",
    "ProtocolConfig",
    "ChannelPlan",
    "RunResult",
    "SpiConfig",
    "SpiSystem",
]
