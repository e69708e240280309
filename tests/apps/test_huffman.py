"""Unit and property tests for Huffman coding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.lpc.huffman import (
    HuffmanCode,
    build_huffman_code,
    huffman_cycles,
)


class TestBuild:
    def test_skewed_frequencies_get_short_codes(self):
        code = build_huffman_code({"a": 100, "b": 10, "c": 1})
        book = code.codebook
        assert len(book["a"]) <= len(book["b"]) <= len(book["c"])

    def test_single_symbol_gets_one_bit(self):
        code = build_huffman_code({"x": 42})
        assert code.codebook == {"x": "0"}
        assert code.decode(code.encode(["x", "x"])) == ["x", "x"]

    def test_uniform_frequencies_balanced(self):
        code = build_huffman_code({s: 1 for s in "abcd"})
        assert all(len(c) == 2 for c in code.codebook.values())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_huffman_code({})

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            build_huffman_code({"a": -1})

    def test_deterministic(self):
        freqs = {"a": 3, "b": 3, "c": 2, "d": 2}
        first = build_huffman_code(freqs).codebook
        second = build_huffman_code(freqs).codebook
        assert first == second


class TestCodec:
    def test_roundtrip(self):
        code = build_huffman_code({"a": 5, "b": 3, "c": 1})
        message = list("abacabaa")
        assert code.decode(code.encode(message)) == message

    def test_unknown_symbol_rejected(self):
        code = build_huffman_code({"a": 1, "b": 1})
        with pytest.raises(KeyError):
            code.encode(["z"])

    def test_dangling_bits_rejected(self):
        code = build_huffman_code({"a": 5, "b": 3, "c": 1})
        longest = max(code.codebook.values(), key=len)
        bits = code.encode(["a", "b"]) + longest[:-1]  # truncated code
        with pytest.raises(ValueError, match="dangling"):
            code.decode(bits)

    def test_invalid_bit_rejected(self):
        code = build_huffman_code({"a": 1, "b": 1})
        with pytest.raises(ValueError, match="invalid bit"):
            code.decode("02")

    def test_encoded_length_is_sum_of_codeword_lengths(self):
        code = build_huffman_code({"a": 3, "b": 1, "c": 1})
        message = ["a", "b", "a", "c", "a"]
        book = code.codebook
        assert len(code.encode(message)) == sum(len(book[s]) for s in message)

    def test_prefix_freeness_enforced(self):
        with pytest.raises(ValueError, match="prefix"):
            HuffmanCode({"a": "0", "b": "01"})


class TestOptimality:
    def test_beats_fixed_width_on_skewed_input(self):
        """Compression: a skewed distribution must beat log2(n) bits."""
        import math

        freqs = {0: 1000, 1: 100, 2: 10, 3: 1}
        code = build_huffman_code(freqs)
        fixed_bits = math.ceil(math.log2(len(freqs)))
        total_bits = sum(
            len(code.codebook[s]) * count for s, count in freqs.items()
        )
        assert total_bits / sum(freqs.values()) < fixed_bits

    @given(
        st.dictionaries(
            st.integers(0, 30),
            st.integers(1, 100),
            min_size=1,
            max_size=12,
        ),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, freqs, data):
        code = build_huffman_code(freqs)
        symbols = data.draw(
            st.lists(st.sampled_from(sorted(freqs)), max_size=50)
        )
        assert code.decode(code.encode(symbols)) == symbols

    @given(
        st.dictionaries(
            st.integers(0, 20), st.integers(1, 50), min_size=2, max_size=10
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_kraft_inequality(self, freqs):
        """Any prefix code satisfies Kraft's inequality; an optimal
        (complete) Huffman code meets it with equality."""
        code = build_huffman_code(freqs)
        kraft = sum(2 ** -len(c) for c in code.codebook.values())
        assert kraft == pytest.approx(1.0)


class TestCycleModel:
    def test_linear_in_samples(self):
        assert huffman_cycles(200) - huffman_cycles(100) == 200
