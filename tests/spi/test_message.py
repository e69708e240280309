"""Unit tests for SPI wire formats (paper §5.1)."""

import pytest

from repro.spi import (
    ACK_BYTES,
    DYNAMIC_HEADER_BYTES,
    STATIC_HEADER_BYTES,
    Message,
    MessageKind,
    make_data_message,
)
from repro.spi.message import WORD_BYTES, header_nbytes


class TestHeaders:
    def test_static_header_is_edge_id_only(self):
        """SPI_static: 'the ID of the interprocessor edge only'."""
        message = make_data_message(7, [1, 2], payload_bytes=8, dynamic=False)
        assert message.header_bytes == STATIC_HEADER_BYTES == 4
        assert message.size_field is None
        assert not message.is_dynamic

    def test_dynamic_header_adds_size(self):
        """SPI_dynamic: 'also contains the message size'."""
        message = make_data_message(7, [1, 2, 3], payload_bytes=6, dynamic=True)
        assert message.header_bytes == DYNAMIC_HEADER_BYTES == 8
        assert message.size_field == 3
        assert message.is_dynamic

    def test_ack_is_one_word(self):
        """An acknowledgment is the edge ID word alone."""
        assert ACK_BYTES == WORD_BYTES == 4

    def test_header_rule_is_shared(self):
        """Messages and channels size headers by one rule."""
        for dynamic in (False, True):
            message = make_data_message(2, [1], 4, dynamic)
            assert message.header_bytes == header_nbytes(dynamic)

    def test_wire_bytes_is_header_plus_payload(self):
        message = make_data_message(1, list(range(10)), 40, dynamic=True)
        assert message.wire_bytes == 8 + 40

    def test_dynamic_beats_mpi_envelope(self):
        """Both SPI headers are smaller than a 6-word MPI envelope."""
        from repro.mpi.baseline import ENVELOPE_BYTES

        assert DYNAMIC_HEADER_BYTES < ENVELOPE_BYTES
        assert STATIC_HEADER_BYTES < ENVELOPE_BYTES


class TestValidation:
    def test_ack_message_rejected(self):
        """Acks are counted by their channel, never built as messages."""
        with pytest.raises(ValueError, match="kind"):
            Message(kind="ack", edge_id=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Message(kind="control", edge_id=1)

    def test_negative_payload_bytes_rejected(self):
        with pytest.raises(ValueError):
            Message(kind=MessageKind.DATA, edge_id=1, payload_bytes=-4)

    def test_messages_are_frozen(self):
        message = make_data_message(1, [1], 4, dynamic=False)
        with pytest.raises(AttributeError):
            message.edge_id = 2

    def test_empty_dynamic_message_allowed(self):
        """A zero-length exchange (PF intra-resampling with no excess
        particles) is a legal dynamic message: size field 0."""
        message = make_data_message(3, [], payload_bytes=0, dynamic=True)
        assert message.size_field == 0
        assert message.wire_bytes == DYNAMIC_HEADER_BYTES
