"""Property tests on the wire formats and flow-control state machines."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spi import (
    ChannelFlowControl,
    DYNAMIC_HEADER_BYTES,
    Protocol,
    ProtocolConfig,
    STATIC_HEADER_BYTES,
    make_data_message,
)
from tests.spi.test_channel import make_channel


class TestMessageProperties:
    @given(
        edge_id=st.integers(0, 2**16),
        payload=st.lists(st.integers(), max_size=64),
        dynamic=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_wire_size_decomposition(self, edge_id, payload, dynamic):
        if not dynamic and not payload:
            payload = [0]  # static messages always carry their fixed rate
        nbytes = 4 * len(payload)
        message = make_data_message(edge_id, payload, nbytes, dynamic)
        expected_header = (
            DYNAMIC_HEADER_BYTES if dynamic else STATIC_HEADER_BYTES
        )
        assert message.header_bytes == expected_header
        assert message.wire_bytes == expected_header + nbytes
        assert message.payload == tuple(payload)
        if dynamic:
            assert message.size_field == len(payload)

    @given(window=st.integers(1, 8), dynamic=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_ack_is_constant_size(self, window, dynamic):
        channel = make_channel(
            protocol=Protocol.UBS, capacity=window, acks=True, dynamic=dynamic
        )
        for _ in range(window):
            channel.flow.on_send()
        for _ in range(window):
            channel.deliver_ack()
        assert channel.stats.ack_messages == window
        assert channel.stats.ack_bytes == 4 * window
        assert channel.stats.header_bytes == 0


class TestFlowControlStateMachine:
    @given(
        window=st.integers(1, 8),
        operations=st.lists(st.booleans(), max_size=60),
    )
    @settings(max_examples=80, deadline=None)
    def test_credits_never_escape_bounds(self, window, operations):
        """Drive the UBS credit machine with a random legal trace: the
        credit count stays within [0, window] and the in-flight count
        equals sends - acks at every step."""
        flow = ChannelFlowControl(
            ProtocolConfig(Protocol.UBS, window, acks_enabled=True)
        )
        in_flight = 0
        for wants_send in operations:
            if wants_send:
                if flow.can_send_n(1):
                    flow.on_send()
                    in_flight += 1
            else:
                if in_flight > 0:
                    flow.on_ack()
                    in_flight -= 1
            assert 0 <= flow.credits <= window
            assert in_flight == window - flow.credits
            assert flow.can_send_n(1) == (flow.credits > 0)

    @given(window=st.integers(1, 8), sends=st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_bbs_unconditional(self, window, sends):
        flow = ChannelFlowControl(
            ProtocolConfig(Protocol.BBS, window, acks_enabled=False)
        )
        for _ in range(sends):
            assert flow.can_send_n(1)
            flow.on_send()
        assert flow.sends == sends
