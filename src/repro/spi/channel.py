"""Run-time state of one SPI interprocessor channel.

A channel materialises the link-side state of one cross-PE dataflow
edge: arrived-but-unprocessed messages, the receiver's buffer memory,
the protocol flow control, and traffic statistics.  The FIFOs feeding
SPI_send and draining SPI_receive are ordinary local edges of the
SPI-inserted graph (``x -> spi_send`` and ``spi_recv -> y``) and are
simulated as :class:`~repro.spi.actors.LocalFifo` objects like every
other same-PE edge — the channel itself only models what crosses the
link: it packages a payload into a data message for the SEND op and
decodes arrived messages into the consumer FIFO for the RECV op.

Data path (all stages simulated, none abstracted away)::

    producer -(local fifo)-> SPI_send =(link message)=> channel.arrived
        -(SPI_receive)-> local fifo -> consumer actor

Acknowledgments travel the reverse link as separate messages.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Optional, Sequence, Tuple

from repro.dataflow.graph import Edge
from repro.platform.memory import BufferMemory
from repro.platform.simulator import Waitset
from repro.spi.message import (
    ACK_BYTES,
    Message,
    header_nbytes,
    make_data_message,
    payload_nbytes,
)
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
    def overhead_bytes(self) -> int:
        """Non-payload bytes: headers plus acknowledgments."""
        return self.header_bytes + self.ack_bytes


class SpiChannel:
    """Link-side state of one interprocessor edge.

    :meth:`attach` binds the run's simulator, interconnect and optional
    observer, which the acknowledgments of :meth:`receive_into` travel
    through.  What every message of the channel shares (edge id, header
    size, transport key) is resolved here once, so :meth:`package` only
    sizes the payload.
    """

    #: SPI has no rendezvous handshake (see the MPI baseline's channel)
    rendezvous = False

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
        #: transport key of the channel's data messages
        self.key = edge.name
        self.edge_id = edge.edge_id
        #: SPI_dynamic headers add the size word (paper §5.1)
        self.header_bytes = header_nbytes(dynamic)
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
        self._sim = None
        self._interconnect = None
        self._observer = None
        #: bound once, so an ack builds no callback of its own
        self._deliver_ack = self.deliver_ack
        self._ack_key = ("ack", edge.name)

    def attach(self, sim, interconnect, observer=None) -> None:
        """Bind the run whose reverse links carry this channel's acks."""
        self._sim = sim
        self._interconnect = interconnect
        self._observer = observer

    @property
    def buffer_high_water(self) -> int:
        """Peak receive-buffer occupancy in bytes (the run's
        ``buffer_high_water`` entry for this channel)."""
        return self.recv_buffer.high_water_bytes

    def deliver(self, message: Message) -> None:
        """A data message finished its link transfer."""
        nbytes = message.payload_bytes
        self.recv_buffer.write(nbytes)
        arrived = self.arrived
        arrived.append(message)
        if len(arrived) > self.arrived_high_water:
            self.arrived_high_water = len(arrived)
        stats = self.stats
        stats.data_messages += 1
        stats.data_bytes += nbytes
        stats.header_bytes += self.header_bytes
        self.data_waitset.wake()

    def deliver_ack(self) -> None:
        """An acknowledgment finished its reverse-link transfer."""
        self.flow.on_ack()
        self.stats.ack_messages += 1
        self.stats.ack_bytes += ACK_BYTES
        self.space_waitset.wake()

    def package(self, payload: Sequence) -> Tuple[int, Callable[[], None]]:
        """One data message of ``payload``: its wire bytes and the
        callback that delivers it when it lands."""
        nbytes = payload_nbytes(payload, self.token_bytes)
        message = make_data_message(self.edge_id, payload, nbytes, self.dynamic)
        return self.header_bytes + nbytes, partial(self.deliver, message)

    def receive_ready(self, n: int = 1) -> bool:
        """SPI_receive guard: the ``n`` messages of a burst have arrived."""
        if n < 1:
            raise ValueError("burst size must be >= 1")
        return len(self.arrived) >= n

    def receive_into(self, fifo, now: int) -> None:
        """SPI_receive: decode the oldest message into ``fifo``.

        A dynamic message's header size field must match its payload.
        For UBS channels with acknowledgments enabled, the ack then
        goes back on the reverse link ("implemented as separate
        messages", paper §4.1); resynchronization may have disabled it
        (``flow.uses_credits`` false), and then the message never exists.
        """
        message = self.accept()
        if message.is_dynamic and message.size_field != len(message.payload):
            raise RuntimeError(
                f"channel {self.edge.name}: dynamic header size "
                f"field {message.size_field} does not match payload "
                f"length {len(message.payload)}"
            )
        fifo.push(message.payload)
        if self.flow.uses_credits:
            self._interconnect.link(self.dst_pe, self.src_pe).send(
                self._sim, now, ACK_BYTES, self._deliver_ack, self._ack_key,
                self._observer,
            )

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
