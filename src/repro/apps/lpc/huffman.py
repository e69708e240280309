"""Huffman coding (own implementation).

Actor ``E`` of the paper's application 1 "implements Huffman coding on
the error samples".  We build the optimal prefix code from symbol
frequencies with the classic two-queue/heap construction, encode to a
bit string, and decode back — the decode side is what the round-trip
tests use to prove losslessness.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence

__all__ = [
    "HuffmanCode",
    "build_huffman_code",
    "huffman_cycles",
]


@dataclass(frozen=True)
class _Node:
    weight: int
    tiebreak: int
    symbol: Hashable = None
    left: "_Node" = None
    right: "_Node" = None

    def __lt__(self, other: "_Node") -> bool:
        return (self.weight, self.tiebreak) < (other.weight, other.tiebreak)


class HuffmanCode:
    """An immutable prefix code: encode/decode plus code-length stats."""

    def __init__(self, codebook: Dict[Hashable, str]) -> None:
        if not codebook:
            raise ValueError("empty codebook")
        self._codebook = dict(codebook)
        self._decode_tree: Dict[str, Hashable] = {
            code: symbol for symbol, code in codebook.items()
        }
        # prefix-freeness sanity check
        codes = sorted(codebook.values())
        for shorter, longer in zip(codes, codes[1:]):
            if longer.startswith(shorter) and shorter != longer:
                raise ValueError(
                    f"codebook is not prefix-free: {shorter!r} prefixes "
                    f"{longer!r}"
                )

    @property
    def codebook(self) -> Dict[Hashable, str]:
        return dict(self._codebook)

    def encode(self, symbols: Sequence[Hashable]) -> str:
        """Symbols -> '0'/'1' string."""
        try:
            return "".join(self._codebook[s] for s in symbols)
        except KeyError as exc:
            raise KeyError(f"symbol {exc.args[0]!r} not in codebook") from None

    def decode(self, bits: str) -> List[Hashable]:
        """'0'/'1' string -> symbols; raises on trailing garbage."""
        symbols: List[Hashable] = []
        current = ""
        for bit in bits:
            if bit not in "01":
                raise ValueError(f"invalid bit {bit!r}")
            current += bit
            if current in self._decode_tree:
                symbols.append(self._decode_tree[current])
                current = ""
        if current:
            raise ValueError(f"dangling bits {current!r} at end of stream")
        return symbols


def build_huffman_code(frequencies: Dict[Hashable, int]) -> HuffmanCode:
    """Optimal prefix code for the given symbol frequencies.

    A single-symbol alphabet gets the 1-bit code ``"0"`` (a zero-bit
    code cannot be decoded by counting).
    """
    if not frequencies:
        raise ValueError("empty frequency table")
    if any(count < 0 for count in frequencies.values()):
        raise ValueError("negative frequency")
    counter = itertools.count()
    heap: List[_Node] = [
        _Node(weight=max(1, count), tiebreak=next(counter), symbol=symbol)
        for symbol, count in sorted(frequencies.items(), key=lambda kv: str(kv[0]))
    ]
    if len(heap) == 1:
        return HuffmanCode({heap[0].symbol: "0"})
    heapq.heapify(heap)
    while len(heap) > 1:
        a = heapq.heappop(heap)
        b = heapq.heappop(heap)
        heapq.heappush(
            heap,
            _Node(
                weight=a.weight + b.weight,
                tiebreak=next(counter),
                left=a,
                right=b,
            ),
        )
    root = heap[0]
    codebook: Dict[Hashable, str] = {}

    def walk(node: _Node, prefix: str) -> None:
        if node.symbol is not None or (node.left is None and node.right is None):
            codebook[node.symbol] = prefix or "0"
            return
        walk(node.left, prefix + "0")
        walk(node.right, prefix + "1")

    walk(root, "")
    return HuffmanCode(codebook)


def huffman_cycles(samples: int, cycles_per_symbol: int = 2) -> int:
    """Cycle model of actor E: table lookup + bit packing per symbol."""
    return samples * cycles_per_symbol + 16
