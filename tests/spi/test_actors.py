"""Unit tests for run-time SPI actors and local FIFOs."""

import pytest

from repro.dataflow import DataflowGraph, PackedToken
from repro.platform import PESequencer, ProcessingElement, Simulator, TraceRecorder
from repro.spi.actors import INIT_CYCLES, LocalFifo, init_op
from repro.spi.message import payload_nbytes


def make_edge(delay=0, initial=None):
    graph = DataflowGraph("f")
    a = graph.actor("A")
    b = graph.actor("B")
    a.add_output("o")
    b.add_input("i")
    edge = graph.connect((a, "o"), (b, "i"), delay=delay)
    if initial is not None:
        edge.set_initial_tokens(initial)
    return edge


class TestLocalFifo:
    def test_initial_tokens_from_delay(self):
        fifo = LocalFifo(make_edge(delay=3))
        assert len(fifo) == 3
        assert fifo.pop(3) == [None, None, None]

    def test_initial_values_used_when_present(self):
        fifo = LocalFifo(make_edge(delay=2, initial=[7, 8]))
        assert fifo.pop(2) == [7, 8]

    def test_fifo_order_and_high_water(self):
        fifo = LocalFifo(make_edge())
        fifo.push([1, 2])
        fifo.push([3])
        assert fifo.high_water == 3
        assert fifo.pop(2) == [1, 2]
        fifo.push([4])
        assert fifo.pop(2) == [3, 4]
        assert fifo.high_water == 3

    def test_underflow_raises(self):
        fifo = LocalFifo(make_edge())
        fifo.push([1])
        with pytest.raises(RuntimeError, match="popping"):
            fifo.pop(2)


class TestPayloadBytes:
    def test_plain_tokens_use_default(self):
        assert payload_nbytes([1, 2, 3], default_token_bytes=4) == 12

    def test_packed_tokens_know_their_size(self):
        token = PackedToken.pack([1, 2, 3, 4, 5], raw_token_bytes=2)
        assert payload_nbytes([token], default_token_bytes=99) == 10

    def test_mixed(self):
        token = PackedToken.pack([1], raw_token_bytes=8)
        assert payload_nbytes([token, 0], default_token_bytes=4) == 12

    def test_empty(self):
        assert payload_nbytes([], default_token_bytes=4) == 0


class TestSpiInit:
    def test_charges_once(self):
        """SPI_init costs INIT_CYCLES on the PE's first dispatch and is a
        free (but still dispatched) program slot afterwards."""
        sim, trace = Simulator(), TraceRecorder()
        PESequencer(
            sim, ProcessingElement(0), [init_op(0)], 3, trace=trace
        ).begin()
        assert sim.run() == INIT_CYCLES
        assert trace.rows == (
            (0, "spi_init:PE0", 0, INIT_CYCLES, 0),
            (0, "spi_init:PE0", INIT_CYCLES, INIT_CYCLES, 1),
            (0, "spi_init:PE0", INIT_CYCLES, INIT_CYCLES, 2),
        )
