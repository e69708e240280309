"""The particle filter's float sums are left to right on every Python.

From Python 3.12 the builtin ``sum`` of floats is compensated, so S1's
partial weight sum and ``estimates()``'s combination of the per-PE
partials add with :func:`_sum_left_to_right` instead: ``0.0 + v0 + v1 +
...`` one rounding at a time, what the builtin computed up to 3.11.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.particle_filter import CrackGrowthModel
from repro.apps.particle_filter.pipeline import (
    DistributedParticleFilterSystem,
    _PartialSum,
    _sum_left_to_right,
)

#: left to right this is 1e16 (each 1.0 is lost to rounding); a
#: compensated sum gives 1.0000000000000002e16
ABSORBED = [1e16, 1.0, 1.0]
#: long enough that numpy's ``sum`` goes pairwise and keeps the ones
ABSORBED_PAIRWISE = [1e16] + [1.0] * 8


def loop_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


@pytest.mark.parametrize("values", [ABSORBED, ABSORBED_PAIRWISE])
def test_absorbed_ones_stay_absorbed(values):
    assert float(np.sum(ABSORBED_PAIRWISE)) != 1e16
    assert _sum_left_to_right(values) == 1e16
    assert _sum_left_to_right(np.asarray(values)) == 1e16


@pytest.mark.parametrize("values", [ABSORBED, ABSORBED_PAIRWISE])
def test_partial_sum_kernel_adds_left_to_right(values):
    weighted = np.zeros((len(values), 2))
    weighted[:, 1] = values
    outputs = _PartialSum(2, 0, collectives=True).kernel(
        0, {"weighted": weighted}
    )
    assert outputs["wsum"] == [1e16]


@pytest.mark.parametrize("values", [ABSORBED, ABSORBED_PAIRWISE])
def test_estimates_combine_the_partials_left_to_right(values):
    system = DistributedParticleFilterSystem(
        graph=None,
        partition=None,
        n_pes=len(values),
        n_particles=len(values),
        model=CrackGrowthModel(),
        observations=[],
        collected=[
            {"iteration": 0, "weighted_sum": value, "weight_total": 1.0}
            for value in values
        ],
    )
    assert system.estimates() == [1e16 / float(len(values))]


@pytest.mark.parametrize("n", range(0, 6))
def test_signed_zeros_sum_to_positive_zero(n):
    assert _sum_left_to_right([-0.0] * n).hex() == (0.0).hex()


@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        max_size=30,
    )
)
@settings(max_examples=300, deadline=None)
def test_equals_a_python_loop(values):
    with np.errstate(over="ignore"):
        total = _sum_left_to_right(values)
    assert total.hex() == loop_sum(values).hex()
