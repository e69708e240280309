"""Reference conformance kernel, kept for the token memo tests.

These are the digest and token functions :mod:`repro.conformance.spec`
used before its kernels derived each firing's tokens once per case: a
CRC-32 of the consumed tokens, then one CRC-32 per output token over the
whole ``actor:port:firing:index:digest`` key, and a log row built from
scratch on every firing.  The tests compare the memoised kernel against
them output for output and row for row.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Tuple


def inputs_digest(inputs: Dict[str, list]) -> int:
    parts = []
    for name in sorted(inputs):
        parts.append(name + "=" + ",".join(str(v) for v in inputs[name]))
    return zlib.crc32("|".join(parts).encode())


def token_value(actor: str, port: str, firing: int, index: int, digest: int) -> int:
    key = f"{actor}:{port}:{firing}:{index}:{digest}"
    return zlib.crc32(key.encode())


def reference_firing(
    actor: str,
    producers: List[tuple],
    firing_index: int,
    inputs: Dict[str, list],
) -> Tuple[Dict[str, list], tuple]:
    """``(outputs, log row)`` of one firing of the reference kernel."""
    digest = inputs_digest(inputs)
    outputs: Dict[str, list] = {}
    for port_name, count_of in producers:
        outputs[port_name] = [
            token_value(actor, port_name, firing_index, j, digest)
            for j in range(count_of(firing_index))
        ]
    row = (
        firing_index,
        tuple((p, tuple(inputs[p])) for p in sorted(inputs)),
        tuple((p, tuple(outputs[p])) for p in sorted(outputs)),
    )
    return outputs, row
