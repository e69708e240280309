"""SPI wire formats (paper §5.1).

The SPI message header is deliberately minimal — this is the heart of
the paper's "careful specialization" claim versus MPI:

* **SPI_static**: the header consists of *the ID of the interprocessor
  edge only* — one word.  Everything else (datatype, length, endpoints)
  is known at compile time from the dataflow graph, so it never travels.
* **SPI_dynamic**: the header additionally carries the *message size*
  (the packed-token size of the VTS model) — the paper's recommended
  alternative to delimiter scanning, which "can be expensive" on FPGA.
* **acknowledgments** are separate messages (paper §4.1: "they are
  implemented as separate messages") carrying just the edge ID.  Their
  arrival is all the sender needs, so the simulator sends
  :data:`ACK_BYTES` on the reverse link and builds no :class:`Message`.

Message datatype is *not* included in any header: "in our targeted
implementations, the message datatype for all communication edges is
known at compile-time, and hence need not be included".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.dataflow.vts import PackedToken

__all__ = [
    "WORD_BYTES",
    "STATIC_HEADER_BYTES",
    "DYNAMIC_HEADER_BYTES",
    "ACK_BYTES",
    "MessageKind",
    "Message",
    "header_nbytes",
    "make_data_message",
    "payload_nbytes",
]

#: the fabric word size of the HDL library (32-bit streaming links)
WORD_BYTES = 4
#: SPI_static header: edge ID word
STATIC_HEADER_BYTES = WORD_BYTES
#: SPI_dynamic header: edge ID word + size word
DYNAMIC_HEADER_BYTES = 2 * WORD_BYTES
#: an acknowledgment message: edge ID word
ACK_BYTES = WORD_BYTES


class MessageKind:
    DATA = "data"


def header_nbytes(dynamic: bool) -> int:
    """Header size of a data message: SPI_dynamic adds the size word."""
    return DYNAMIC_HEADER_BYTES if dynamic else STATIC_HEADER_BYTES


@dataclass(frozen=True, eq=False, init=False)
class Message:
    """One data message on a link.

    ``payload`` carries the real token values (the simulator is
    functional as well as timed): the token block of one send, a tuple
    or an ndarray.  ``payload_bytes`` is the wire size of the
    data portion, and ``size_field`` the packed-token size carried in a
    dynamic header (``None`` for static messages).  Messages
    compare by identity, so an ndarray payload never meets ``==``.
    """

    kind: str
    edge_id: int
    payload: Sequence = ()
    payload_bytes: int = 0
    size_field: Optional[int] = None

    def __init__(
        self,
        kind: str,
        edge_id: int,
        payload: Sequence = (),
        payload_bytes: int = 0,
        size_field: Optional[int] = None,
    ) -> None:
        if kind != MessageKind.DATA:
            raise ValueError(f"unknown message kind {kind!r}")
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")
        # one dict update instead of a frozen-dataclass setattr per field
        self.__dict__.update(
            kind=kind,
            edge_id=edge_id,
            payload=payload,
            payload_bytes=payload_bytes,
            size_field=size_field,
        )

    @property
    def header_bytes(self) -> int:
        return header_nbytes(self.size_field is not None)

    @property
    def wire_bytes(self) -> int:
        """Total bytes on the link: header + payload."""
        return self.header_bytes + self.payload_bytes

    @property
    def is_dynamic(self) -> bool:
        return self.size_field is not None


def make_data_message(
    edge_id: int,
    payload: Sequence,
    payload_bytes: int,
    dynamic: bool,
) -> Message:
    """Build a data message; dynamic messages carry their size field.

    An ndarray block travels as it is; any other sequence is copied
    into a tuple.
    """
    return Message(
        MessageKind.DATA,
        edge_id,
        payload if isinstance(payload, np.ndarray) else tuple(payload),
        payload_bytes,
        len(payload) if dynamic else None,
    )


def payload_nbytes(block: Sequence, default_token_bytes: int) -> int:
    """Wire size of a token block (packed tokens know their own size)."""
    if isinstance(block, np.ndarray) and block.dtype != object:
        return len(block) * default_token_bytes
    total = 0
    for token in block:
        if isinstance(token, PackedToken):
            total += token.nbytes
        else:
            total += default_token_bytes
    return total
