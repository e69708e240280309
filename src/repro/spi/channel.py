"""Run-time state of one SPI interprocessor channel.

A channel materialises the link-side state of one cross-PE dataflow
edge: arrived-but-unprocessed messages, the receiver's buffer memory,
the protocol flow control, and traffic statistics.  The FIFOs feeding
SPI_send and draining SPI_receive are ordinary local edges of the
SPI-inserted graph (``x -> spi_send`` and ``spi_recv -> y``) and are
simulated as :class:`~repro.spi.actors.LocalFifo` objects like every
other same-PE edge — the channel itself only models what crosses the
link.

Data path (all stages simulated, none abstracted away)::

    producer -(local fifo)-> SPI_send =(link message)=> channel.arrived
        -(SPI_receive)-> local fifo -> consumer actor

Acknowledgments travel the reverse link as separate messages.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.dataflow.graph import Edge
from repro.platform.memory import BufferMemory
from repro.platform.simulator import Waitset
from repro.spi.message import Message, MessageKind
from repro.spi.protocols import ChannelFlowControl, ProtocolConfig

__all__ = ["SpiChannel", "ChannelStats"]


@dataclass
class ChannelStats:
    """Observable traffic counters of one channel."""

    data_messages: int = 0
    ack_messages: int = 0
    data_bytes: int = 0
    header_bytes: int = 0
    ack_bytes: int = 0

    @property
    def total_wire_bytes(self) -> int:
        return self.data_bytes + self.header_bytes + self.ack_bytes

    @property
    def total_messages(self) -> int:
        return self.data_messages + self.ack_messages

    @property
    def overhead_bytes(self) -> int:
        """Non-payload bytes: headers plus acknowledgments."""
        return self.header_bytes + self.ack_bytes


class SpiChannel:
    """Link-side state of one interprocessor edge."""

    def __init__(
        self,
        edge: Edge,
        src_pe: int,
        dst_pe: int,
        config: ProtocolConfig,
        dynamic: bool,
        token_bytes: int,
        recv_capacity_bytes: Optional[int],
    ) -> None:
        if src_pe == dst_pe:
            raise ValueError("SPI channels connect distinct PEs")
        self.edge = edge
        self.src_pe = src_pe
        self.dst_pe = dst_pe
        self.config = config
        self.dynamic = dynamic
        self.token_bytes = token_bytes
        self.flow = ChannelFlowControl(config)
        self.recv_buffer = BufferMemory(
            f"{edge.name}.recv", capacity_bytes=recv_capacity_bytes
        )
        #: messages that arrived on the link, awaiting SPI_receive
        self.arrived: Deque[Message] = deque()
        #: most messages ever queued at once — compared against the
        #: compile-time bound B(e) by the observability layer
        self.arrived_high_water = 0
        self.stats = ChannelStats()
        #: woken when a data message lands (unblocks SPI_receive)
        self.data_waitset = Waitset(f"{edge.name}.data")
        #: woken when an ack restores a send credit (unblocks SPI_send)
        self.space_waitset = Waitset(f"{edge.name}.space")

    @property
    def buffer_high_water(self) -> int:
        """Peak receive-buffer occupancy in bytes (the run's
        ``buffer_high_water`` entry for this channel)."""
        return self.recv_buffer.high_water_bytes

    def on_send(self) -> None:
        """Sender committed one message (credit accounting for UBS)."""
        self.flow.on_send()

    def deliver(self, message: Message) -> None:
        """A message finished its link transfer (data or ack)."""
        if message.kind == MessageKind.ACK:
            self.flow.on_ack()
            self.stats.ack_messages += 1
            self.stats.ack_bytes += message.wire_bytes
            self.space_waitset.wake()
            return
        self.recv_buffer.write(message.payload_bytes)
        self.arrived.append(message)
        if len(self.arrived) > self.arrived_high_water:
            self.arrived_high_water = len(self.arrived)
        self.stats.data_messages += 1
        self.stats.data_bytes += message.payload_bytes
        self.stats.header_bytes += message.header_bytes
        self.data_waitset.wake()

    def receive_ready(self) -> bool:
        """SPI_receive guard: a message is waiting."""
        return bool(self.arrived)

    def receive_ready_n(self, n: int) -> bool:
        """Batched SPI_receive guard: the whole burst has arrived."""
        if n < 1:
            raise ValueError("burst size must be >= 1")
        return len(self.arrived) >= n

    def accept(self) -> Message:
        """SPI_receive consumes one message, freeing its buffer bytes."""
        if not self.arrived:
            raise RuntimeError(
                f"channel {self.edge.name}: SPI_receive fired without a "
                f"message"
            )
        message = self.arrived.popleft()
        self.recv_buffer.read(message.payload_bytes)
        return message

    @property
    def protocol(self) -> str:
        return self.config.protocol

    def __repr__(self) -> str:
        return (
            f"SpiChannel({self.edge.name!r}, PE{self.src_pe}->PE{self.dst_pe}, "
            f"{self.protocol}, dynamic={self.dynamic})"
        )
