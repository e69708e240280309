"""Unit tests for SPI channel run-time state."""

import pytest

from repro.dataflow import DataflowGraph
from repro.platform import BufferOverflowError
from repro.spi import (
    Protocol,
    ProtocolConfig,
    SpiChannel,
    make_data_message,
)


def make_channel(protocol=Protocol.BBS, capacity=2, acks=False,
                 recv_capacity_bytes=64, dynamic=False):
    graph = DataflowGraph("ch")
    a = graph.actor("A")
    b = graph.actor("B")
    a.add_output("o")
    b.add_input("i")
    edge = graph.connect((a, "o"), (b, "i"))
    return SpiChannel(
        edge=edge,
        src_pe=0,
        dst_pe=1,
        config=ProtocolConfig(protocol, capacity, acks),
        dynamic=dynamic,
        token_bytes=4,
        recv_capacity_bytes=recv_capacity_bytes,
    )


class TestDelivery:
    def test_data_message_queues_and_accounts(self):
        channel = make_channel()
        message = make_data_message(channel.edge.edge_id, [1, 2], 8, False)
        channel.deliver(message)
        assert channel.receive_ready()
        assert channel.recv_buffer.occupancy_bytes == 8
        assert channel.stats.data_messages == 1
        assert channel.stats.header_bytes == 4

    def test_accept_frees_buffer_and_returns_message(self):
        channel = make_channel()
        message = make_data_message(channel.edge.edge_id, [5], 4, False)
        channel.deliver(message)
        accepted = channel.accept()
        assert accepted.payload == (5,)
        assert channel.recv_buffer.occupancy_bytes == 0
        assert not channel.receive_ready()

    def test_accept_without_message_is_error(self):
        channel = make_channel()
        with pytest.raises(RuntimeError, match="without a message"):
            channel.accept()

    def test_fifo_order(self):
        channel = make_channel(recv_capacity_bytes=1024)
        for value in range(5):
            channel.deliver(
                make_data_message(channel.edge.edge_id, [value], 4, False)
            )
        received = [channel.accept().payload[0] for _ in range(5)]
        assert received == [0, 1, 2, 3, 4]

    def test_overflow_detected(self):
        channel = make_channel(recv_capacity_bytes=8)
        channel.deliver(make_data_message(1, [1, 2], 8, False))
        with pytest.raises(BufferOverflowError):
            channel.deliver(make_data_message(1, [3], 4, False))

    def test_ack_updates_flow_not_buffer(self):
        channel = make_channel(
            protocol=Protocol.UBS, capacity=2, acks=True
        )
        channel.flow.on_send()
        channel.deliver_ack()
        assert channel.stats.ack_messages == 1
        assert channel.recv_buffer.occupancy_bytes == 0
        assert channel.flow.can_send_n(1)


class TestStats:
    def test_overhead_bytes(self):
        channel = make_channel(protocol=Protocol.UBS, capacity=4, acks=True)
        channel.flow.on_send()
        channel.deliver(make_data_message(1, [1], 4, False))
        channel.deliver_ack()
        assert channel.stats.overhead_bytes == 4 + 4  # header + ack

    def test_same_pe_rejected(self):
        graph = DataflowGraph("x")
        a = graph.actor("A")
        b = graph.actor("B")
        a.add_output("o")
        b.add_input("i")
        edge = graph.connect((a, "o"), (b, "i"))
        with pytest.raises(ValueError, match="distinct"):
            SpiChannel(
                edge=edge, src_pe=1, dst_pe=1,
                config=ProtocolConfig(Protocol.BBS, 1, False),
                dynamic=False, token_bytes=4, recv_capacity_bytes=16,
            )
