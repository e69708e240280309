"""Unit tests for buffer memories."""

import pytest

from repro.platform import (
    BufferMemory,
    BufferOverflowError,
    BufferUnderflowError,
)


class TestBoundedBuffer:
    def test_write_read_cycle(self):
        buffer = BufferMemory("b", capacity_bytes=10)
        buffer.write(6)
        assert buffer.occupancy_bytes == 6
        buffer.read(4)
        assert buffer.occupancy_bytes == 2

    def test_overflow_raises(self):
        buffer = BufferMemory("b", capacity_bytes=10)
        buffer.write(8)
        with pytest.raises(BufferOverflowError, match="exceeds capacity"):
            buffer.write(3)

    def test_underflow_raises(self):
        buffer = BufferMemory("b", capacity_bytes=10)
        buffer.write(2)
        with pytest.raises(BufferUnderflowError):
            buffer.read(3)

    def test_high_water_tracking(self):
        buffer = BufferMemory("b", capacity_bytes=100)
        buffer.write(30)
        buffer.write(40)
        buffer.read(50)
        buffer.write(10)
        assert buffer.high_water_bytes == 70
        assert buffer.total_written_bytes == 80

    def test_can_accept(self):
        buffer = BufferMemory("b", capacity_bytes=4)
        assert buffer.can_accept(4)
        buffer.write(1)
        assert not buffer.can_accept(4)


class TestUnboundedBuffer:
    def test_never_overflows(self):
        buffer = BufferMemory("u")
        buffer.write(10**9)
        assert buffer.occupancy_bytes == 10**9

    def test_still_tracks_high_water(self):
        buffer = BufferMemory("u")
        buffer.write(100)
        buffer.read(60)
        assert buffer.high_water_bytes == 100


class TestValidation:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferMemory("b", capacity_bytes=-1)

    def test_negative_write_rejected(self):
        with pytest.raises(ValueError):
            BufferMemory("b", capacity_bytes=4).write(-1)

    def test_negative_read_rejected(self):
        with pytest.raises(ValueError):
            BufferMemory("b", capacity_bytes=4).read(-1)
