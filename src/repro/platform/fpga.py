"""Virtex-4-style FPGA resource model.

The paper's Tables 1 and 2 report post-synthesis area of the two
application systems and of the SPI library *relative* to them, in the
Virtex-4 resource categories: slices, slice flip-flops, 4-input LUTs,
Block RAMs and DSP48 blocks.  We reproduce those tables with a
structural cost model:

* every actor and every SPI module declares a :class:`ResourceVector`
  (directly, or via the :func:`estimate_datapath` / :func:`estimate_fifo`
  helpers which translate datapath structure — multipliers, adders,
  registers, buffer bytes — into primitive counts using Virtex-4
  architecture rules);
* a :class:`FpgaDevice` holds the device capacity so percentages of the
  device can be reported;
* :class:`UtilizationReport` renders the paper's two-row table shape
  (full system % of device, SPI library % relative to the full system).

Architecture rules used (Virtex-4 fabric):

* one slice = 2 four-input LUTs + 2 flip-flops; synthesis typically
  packs at ~60-70 % efficiency, we use ``SLICE_PACKING = 0.65``;
* one DSP48 implements one 18x18 multiply-accumulate;
* one Block RAM holds 18 kilobits (2 KiB + parity); any actor/channel
  state beyond :data:`BRAM_THRESHOLD_BYTES` is mapped to BRAM, smaller
  state stays in distributed LUT RAM/FFs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable

__all__ = [
    "ResourceVector",
    "FpgaDevice",
    "VIRTEX4_SX35",
    "VIRTEX4_LX60",
    "estimate_datapath",
    "estimate_fifo",
    "UtilizationReport",
    "RESOURCE_FIELDS",
]

RESOURCE_FIELDS = ("slices", "slice_ffs", "lut4", "bram", "dsp48")

#: fraction of a slice's LUT/FF capacity synthesis actually packs
SLICE_PACKING = 0.65
#: bytes of data one 18 kb Block RAM holds (16 kb of data + parity)
BRAM_BYTES = 2048
#: state smaller than this stays in distributed RAM / registers
BRAM_THRESHOLD_BYTES = 128


@dataclass(frozen=True)
class ResourceVector:
    """Counts of the five Virtex-4 resource categories."""

    slices: int = 0
    slice_ffs: int = 0
    lut4: int = 0
    bram: int = 0
    dsp48: int = 0

    def __post_init__(self) -> None:
        for name in RESOURCE_FIELDS:
            if getattr(self, name) < 0:
                raise ValueError(f"resource {name} must be >= 0")

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            *(getattr(self, f) + getattr(other, f) for f in RESOURCE_FIELDS)
        )

    def scale(self, factor: int) -> "ResourceVector":
        """Integer replication (``factor`` parallel instances)."""
        if factor < 0:
            raise ValueError("scale factor must be >= 0")
        return ResourceVector(
            *(getattr(self, f) * factor for f in RESOURCE_FIELDS)
        )

    def as_dict(self) -> Dict[str, int]:
        return {f: getattr(self, f) for f in RESOURCE_FIELDS}

    @classmethod
    def sum(cls, vectors: Iterable["ResourceVector"]) -> "ResourceVector":
        total = cls()
        for vector in vectors:
            total = total + vector
        return total


@dataclass(frozen=True)
class FpgaDevice:
    """Capacity of one FPGA device."""

    name: str
    capacity: ResourceVector

    def utilization(self, used: ResourceVector) -> Dict[str, float]:
        """Percent of device used per resource category."""
        result = {}
        for field_name in RESOURCE_FIELDS:
            cap = getattr(self.capacity, field_name)
            use = getattr(used, field_name)
            result[field_name] = 100.0 * use / cap if cap else 0.0
        return result

    def fits(self, used: ResourceVector) -> bool:
        return all(
            getattr(used, f) <= getattr(self.capacity, f)
            for f in RESOURCE_FIELDS
        )


#: The SX35 is the DSP-oriented mid-size Virtex-4 matching the paper's
#: "FPGA resources were not enough to fit a multiprocessor version of the
#: whole system" observation for application 1.
VIRTEX4_SX35 = FpgaDevice(
    "xc4vsx35",
    ResourceVector(slices=15360, slice_ffs=30720, lut4=30720, bram=192, dsp48=192),
)

VIRTEX4_LX60 = FpgaDevice(
    "xc4vlx60",
    ResourceVector(slices=26624, slice_ffs=53248, lut4=53248, bram=160, dsp48=64),
)


def estimate_datapath(
    multipliers: int = 0,
    adders: int = 0,
    registers_bits: int = 0,
    logic_lut4: int = 0,
    state_bytes: int = 0,
    adder_width: int = 18,
) -> ResourceVector:
    """Translate datapath structure into Virtex-4 primitives.

    * each 18x18 multiplier -> 1 DSP48 (no fabric cost: V4 DSP48 has the
      adder/accumulator built in);
    * each ``adder_width``-bit adder -> ``adder_width`` LUT4s (carry
      chains use one LUT per bit);
    * ``registers_bits`` -> flip-flops;
    * ``logic_lut4`` -> extra random logic LUTs;
    * ``state_bytes`` above :data:`BRAM_THRESHOLD_BYTES` -> BRAMs,
      otherwise distributed RAM (16 bits/LUT) plus address registers.
    """
    if min(multipliers, adders, registers_bits, logic_lut4, state_bytes) < 0:
        raise ValueError("datapath quantities must be >= 0")
    luts = adders * adder_width + logic_lut4
    ffs = registers_bits
    bram = 0
    if state_bytes > 0:
        if state_bytes > BRAM_THRESHOLD_BYTES:
            bram = math.ceil(state_bytes / BRAM_BYTES)
        else:
            luts += math.ceil(state_bytes * 8 / 16)  # distributed RAM
            ffs += 16  # small address/valid bookkeeping
    slices = math.ceil(max(luts, ffs) / (2 * SLICE_PACKING)) if (luts or ffs) else 0
    return ResourceVector(
        slices=slices, slice_ffs=ffs, lut4=luts, bram=bram, dsp48=multipliers
    )


def estimate_fifo(
    depth_bytes: int, width_bits: int = 32, force_bram: bool = False
) -> ResourceVector:
    """Cost of a FIFO buffer of ``depth_bytes`` with ``width_bits`` ports.

    Control (read/write pointers, full/empty flags, gray-code sync) costs
    a small fixed amount of fabric; storage maps to BRAM beyond the
    distributed-RAM threshold.  ``force_bram`` models dual-ported buffers
    (e.g. an SPI receive buffer written by the link and read by the
    consumer) that synthesis maps to Block RAM regardless of depth —
    this is why the SPI library owns a disproportionate share of the
    BRAMs in the paper's Table 1.
    """
    if depth_bytes < 0:
        raise ValueError("depth_bytes must be >= 0")
    pointer_bits = max(1, math.ceil(math.log2(max(2, depth_bytes))))
    control_ffs = 2 * pointer_bits + 4
    control_luts = 2 * pointer_bits + 8
    if force_bram:
        storage = ResourceVector(bram=max(1, math.ceil(depth_bytes / BRAM_BYTES)))
    else:
        storage = estimate_datapath(state_bytes=depth_bytes)
    control = estimate_datapath(
        registers_bits=control_ffs, logic_lut4=control_luts
    )
    # width adds mux/register staging
    staging = estimate_datapath(registers_bits=width_bits)
    return storage + control + staging


@dataclass
class UtilizationReport:
    """The paper's table shape: full system vs SPI library.

    ``full_system`` is the total used area, ``spi_library`` the part of
    it contributed by the SPI communication modules.
    """

    device: FpgaDevice
    full_system: ResourceVector
    spi_library: ResourceVector
    title: str = ""

    def device_percent(self) -> Dict[str, float]:
        """Full system as % of the device (paper's "Full system" row)."""
        return self.device.utilization(self.full_system)

    def spi_relative_percent(self) -> Dict[str, float]:
        """SPI library as % of the full system (paper's second row)."""
        result = {}
        for field_name in RESOURCE_FIELDS:
            total = getattr(self.full_system, field_name)
            spi = getattr(self.spi_library, field_name)
            result[field_name] = 100.0 * spi / total if total else 0.0
        return result

    def render(self) -> str:
        """ASCII rendering in the shape of the paper's Tables 1/2."""
        headers = ["", "Slices", "Slice FFs", "4-input LUTs", "Block RAMs", "DSP48s"]
        dev = self.device_percent()
        rel = self.spi_relative_percent()
        rows = [
            ["Full system (% of device)"]
            + [f"{dev[f]:.2f}%" for f in RESOURCE_FIELDS],
            ["SPI library (relative to full system)"]
            + [f"{rel[f]:.2f}%" for f in RESOURCE_FIELDS],
        ]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows))
            for i in range(len(headers))
        ]
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(
            "  ".join(h.ljust(w) for h, w in zip(headers, widths))
        )
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)
