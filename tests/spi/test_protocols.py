"""Unit tests for BBS/UBS flow control (paper §4)."""

import pytest

from repro.spi import ChannelFlowControl, Protocol, ProtocolConfig


class TestProtocolConfig:
    def test_bbs_never_acks(self):
        with pytest.raises(ValueError, match="BBS never"):
            ProtocolConfig(Protocol.BBS, capacity_tokens=4, acks_enabled=True)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ProtocolConfig(Protocol.UBS, capacity_tokens=0, acks_enabled=True)

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            ProtocolConfig("SPI_XXX", capacity_tokens=1, acks_enabled=False)


class TestBbsFlow:
    def test_bbs_never_blocks(self):
        flow = ChannelFlowControl(
            ProtocolConfig(Protocol.BBS, capacity_tokens=2, acks_enabled=False)
        )
        for _ in range(100):
            assert flow.can_send_n(1)
            flow.on_send()
        assert flow.credits is None
        assert flow.sends == 100


class TestUbsFlow:
    def flow(self, window=3):
        return ChannelFlowControl(
            ProtocolConfig(Protocol.UBS, capacity_tokens=window,
                           acks_enabled=True)
        )

    def test_window_blocks_after_exhaustion(self):
        flow = self.flow(window=3)
        for _ in range(3):
            assert flow.can_send_n(1)
            flow.on_send()
        assert not flow.can_send_n(1)

    def test_ack_restores_credit(self):
        flow = self.flow(window=1)
        flow.on_send()
        assert not flow.can_send_n(1)
        flow.on_ack()
        assert flow.can_send_n(1)
        assert flow.acks_received == 1

    def test_send_without_credit_is_violation(self):
        flow = self.flow(window=1)
        flow.on_send()
        with pytest.raises(RuntimeError, match="zero credits"):
            flow.on_send()

    def test_spurious_ack_is_violation(self):
        flow = self.flow(window=2)
        with pytest.raises(RuntimeError, match="more acks"):
            flow.on_ack()

    def test_ack_free_ubs_never_blocks(self):
        """UBS whose ack edge was proven redundant runs without credits
        (the resynchronization optimisation)."""
        flow = ChannelFlowControl(
            ProtocolConfig(Protocol.UBS, capacity_tokens=2,
                           acks_enabled=False)
        )
        for _ in range(10):
            assert flow.can_send_n(1)
            flow.on_send()
        assert flow.credits is None
