"""Unit tests for the LPC actors' sizing helpers."""

import pytest

from repro.apps.lpc.actors import ErrorGenerator, next_pow2


class TestNextPow2:
    @pytest.mark.parametrize(
        "n, expected",
        [(1, 1), (2, 2), (3, 4), (200, 256), (256, 256), (257, 512)],
    )
    def test_smallest_power_of_two_not_below(self, n, expected):
        assert next_pow2(n) == expected

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            next_pow2(0)


class TestErrorGeneratorSections:
    @pytest.mark.parametrize("n_units", [1, 2, 3, 4])
    def test_sections_tile_the_frame(self, n_units):
        # each sample's residual is computed by exactly one unit, in order
        for frame_size in (1, 5, 160, 193, 256):
            covered = []
            for unit in range(n_units):
                start, stop = ErrorGenerator(n_units, unit).section_bounds(
                    frame_size
                )
                covered.extend(range(start, stop))
            assert covered == list(range(frame_size))

    def test_unit_index_checked(self):
        with pytest.raises(ValueError, match="unit_index"):
            ErrorGenerator(n_units=2, unit_index=2)
