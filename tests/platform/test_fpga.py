"""Unit tests for the FPGA resource model."""

import pytest

from repro.platform import (
    RESOURCE_FIELDS,
    VIRTEX4_SX35,
    ResourceVector,
    UtilizationReport,
    estimate_datapath,
    estimate_fifo,
)


class TestResourceVector:
    def test_addition(self):
        total = ResourceVector(slices=1, dsp48=2) + ResourceVector(
            slices=3, bram=1
        )
        assert total.slices == 4
        assert total.dsp48 == 2
        assert total.bram == 1

    def test_scale(self):
        scaled = ResourceVector(slices=3, lut4=7).scale(4)
        assert scaled.slices == 12
        assert scaled.lut4 == 28

    def test_sum(self):
        vectors = [ResourceVector(slices=1)] * 5
        assert ResourceVector.sum(vectors).slices == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(slices=-1)

    def test_as_dict_covers_all_fields(self):
        d = ResourceVector(1, 2, 3, 4, 5).as_dict()
        assert set(d) == set(RESOURCE_FIELDS)


class TestFpgaDevice:
    def test_utilization_percentages(self):
        used = ResourceVector(slices=1536, slice_ffs=3072, lut4=3072)
        util = VIRTEX4_SX35.utilization(used)
        assert util["slices"] == pytest.approx(10.0)
        assert util["dsp48"] == 0.0

    def test_fits(self):
        assert VIRTEX4_SX35.fits(ResourceVector(slices=15360))
        assert not VIRTEX4_SX35.fits(ResourceVector(slices=15361))


class TestEstimators:
    def test_multipliers_become_dsp48(self):
        vector = estimate_datapath(multipliers=3)
        assert vector.dsp48 == 3

    def test_large_state_becomes_bram(self):
        vector = estimate_datapath(state_bytes=4096)
        assert vector.bram == 2  # 4096 / 2048

    def test_small_state_stays_distributed(self):
        vector = estimate_datapath(state_bytes=64)
        assert vector.bram == 0
        assert vector.lut4 > 0

    def test_adders_cost_luts(self):
        vector = estimate_datapath(adders=2, adder_width=16)
        assert vector.lut4 == 32

    def test_slices_track_max_of_luts_and_ffs(self):
        lut_heavy = estimate_datapath(logic_lut4=100)
        ff_heavy = estimate_datapath(registers_bits=100)
        assert lut_heavy.slices == ff_heavy.slices

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            estimate_datapath(multipliers=-1)

    def test_fifo_storage_scales(self):
        small = estimate_fifo(depth_bytes=256)
        large = estimate_fifo(depth_bytes=8192)
        assert large.bram > small.bram

    def test_fifo_has_control_logic(self):
        vector = estimate_fifo(depth_bytes=1024)
        assert vector.slice_ffs > 0
        assert vector.lut4 > 0


class TestUtilizationReport:
    def test_relative_percentages(self):
        report = UtilizationReport(
            device=VIRTEX4_SX35,
            full_system=ResourceVector(slices=1000, bram=10),
            spi_library=ResourceVector(slices=100, bram=5),
        )
        rel = report.spi_relative_percent()
        assert rel["slices"] == pytest.approx(10.0)
        assert rel["bram"] == pytest.approx(50.0)
        assert rel["dsp48"] == 0.0

    def test_render_has_both_rows(self):
        report = UtilizationReport(
            device=VIRTEX4_SX35,
            full_system=ResourceVector(slices=1000),
            spi_library=ResourceVector(slices=120),
            title="Table X",
        )
        text = report.render()
        assert "Table X" in text
        assert "Full system" in text
        assert "SPI library" in text
        assert "12.00%" in text
