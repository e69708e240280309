"""Block FIFO semantics: a :class:`LocalFifo` of token blocks behaves
exactly like a per-token FIFO, and packed tokens carry ndarray blocks.
"""

from collections import deque
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import DataflowGraph, PackedToken
from repro.spi.actors import LocalFifo
from repro.spi.message import payload_nbytes

BLOCK_KINDS = ("list", "tuple", "int1d", "float1d", "float2d")


def make_edge():
    graph = DataflowGraph("blocks")
    a = graph.actor("A")
    b = graph.actor("B")
    a.add_output("o")
    b.add_input("i")
    return graph.connect((a, "o"), (b, "i"))


def make_block(kind, size, serial):
    """A block of ``size`` distinct tokens of the given kind."""
    values = [next(serial) for _ in range(size)]
    if kind == "list":
        return values
    if kind == "tuple":
        return tuple(values)
    if kind == "int1d":
        return np.array(values, dtype=np.int64)
    if kind == "float1d":
        return np.array(values, dtype=np.float64) + 0.5
    return np.array([[v, -v] for v in values], dtype=np.float64).reshape(
        size, 2
    )


def canonical(token):
    """(type, value) of one token; a 2-D block's token is a row array."""
    if isinstance(token, np.ndarray):
        return (np.ndarray, str(token.dtype), tuple(token.tolist()))
    return (type(token), token)


operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"), st.sampled_from(BLOCK_KINDS), st.integers(0, 6)
        ),
        st.tuples(st.just("pop"), st.integers(0, 14)),
    ),
    max_size=40,
)


class TestBlockFifoMatchesPerTokenFifo:
    @given(operations)
    @settings(max_examples=200, deadline=None)
    def test_random_push_pop_trace(self, trace):
        fifo = LocalFifo(make_edge())
        model = deque()
        #: [block as pushed, tokens of it still queued] per queued block
        pending = deque()
        high_water = 0
        serial = count(1)
        for op in trace:
            if op[0] == "push":
                block = make_block(op[1], op[2], serial)
                fifo.push(block)
                model.extend(block)
                if len(block):
                    pending.append([block, len(block)])
                high_water = max(high_water, len(model))
                if isinstance(block, np.ndarray) and len(block):
                    assert not block.flags.writeable
            else:
                size = op[1]
                if size > len(model):
                    with pytest.raises(
                        RuntimeError,
                        match=(
                            rf"^fifo {fifo.edge.name}: popping {size} of "
                            rf"{len(model)} tokens$"
                        ),
                    ):
                        fifo.pop(size)
                    continue
                exact = (
                    size > 0
                    and pending
                    and pending[0][1] == len(pending[0][0]) == size
                )
                head = pending[0][0] if exact else None
                got = fifo.pop(size)
                want = [model.popleft() for _ in range(size)]
                assert len(got) == size
                assert [canonical(t) for t in got] == [
                    canonical(t) for t in want
                ]
                if exact and isinstance(head, np.ndarray):
                    assert got is head
                elif exact:
                    # list blocks were copied at push: equal, not aliased
                    assert got is not head and list(got) == list(head)
                left = size
                while left:
                    if pending[0][1] <= left:
                        left -= pending.popleft()[1]
                    else:
                        pending[0][1] -= left
                        left = 0
            assert fifo.count == len(fifo) == len(model)
            assert fifo.high_water == high_water
            assert [canonical(t) for t in fifo.snapshot()] == [
                canonical(t) for t in model
            ]


class TestBlockFifoEdges:
    def test_zero_length_push_adds_no_block(self):
        fifo = LocalFifo(make_edge())
        block = np.arange(3.0)
        fifo.push([])
        fifo.push(np.empty(0))
        fifo.push(block)
        fifo.push(())
        assert fifo.count == 3 and fifo.high_water == 3
        assert fifo.pop(3) is block
        assert fifo.count == 0 and fifo.snapshot() == ()

    def test_underflow_leaves_contents_untouched(self):
        fifo = LocalFifo(make_edge())
        fifo.push(np.arange(2))
        with pytest.raises(RuntimeError, match="popping 3 of 2 tokens"):
            fifo.pop(3)
        assert fifo.pop(2).tolist() == [0, 1]

    def test_split_ndarray_pop_is_a_read_only_slice(self):
        fifo = LocalFifo(make_edge())
        fifo.push(np.arange(5.0))
        head = fifo.pop(2)
        assert isinstance(head, np.ndarray) and not head.flags.writeable
        assert head.tolist() == [0.0, 1.0]
        assert fifo.pop(3).tolist() == [2.0, 3.0, 4.0]

    def test_spanning_pop_of_like_arrays_concatenates(self):
        fifo = LocalFifo(make_edge())
        fifo.push(np.ones((2, 2)))
        fifo.push(np.zeros((1, 2)))
        got = fifo.pop(3)
        assert isinstance(got, np.ndarray) and got.shape == (3, 2)

    def test_spanning_pop_of_unlike_blocks_gives_per_token_list(self):
        fifo = LocalFifo(make_edge())
        fifo.push(np.array([1, 2], dtype=np.int64))
        fifo.push(np.array([3.5]))
        fifo.push([4])
        got = fifo.pop(4)
        assert isinstance(got, list)
        assert [type(t) for t in got] == [
            np.int64, np.int64, np.float64, int
        ]


class TestPayloadBytesOfBlocks:
    def test_ndarray_blocks_count_tokens(self):
        assert payload_nbytes(np.zeros(5), default_token_bytes=4) == 20
        assert payload_nbytes(np.zeros((3, 2)), default_token_bytes=8) == 24
        assert payload_nbytes(np.zeros(0), default_token_bytes=8) == 0

    def test_packed_tokens_with_ndarray_payload(self):
        token = PackedToken.pack(np.arange(6.0), raw_token_bytes=4)
        assert payload_nbytes([token], default_token_bytes=99) == 24
        assert payload_nbytes((token, token), default_token_bytes=99) == 48


class TestPackedTokenNdarrayPayload:
    def test_payload_kept_without_copy_and_read_only(self):
        raw = np.array([1.5, 2.5, 3.5])
        token = PackedToken.pack(raw, raw_token_bytes=4)
        assert token.payload is raw
        assert not raw.flags.writeable
        assert token.size == 3
        assert token.nbytes == 12
        assert token.unpack() == [1.5, 2.5, 3.5]

    def test_sequences_still_become_tuples(self):
        token = PackedToken.pack([1, 2], raw_token_bytes=4)
        assert token.payload == (1, 2)

    def test_equality_and_hash_never_touch_the_payload(self):
        a = PackedToken.pack(np.arange(4.0), raw_token_bytes=4)
        b = PackedToken.pack(np.arange(4.0), raw_token_bytes=4)
        assert a == a and a != b
        assert len({a, b}) == 2
        assert a in [b, a]
