"""Unit and property tests for sequential and distributed resampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.particle_filter.resampling import (
    _float64_sum,
    allocate_targets,
    multiplicities,
    plan_exchanges,
    systematic_resample,
)
from tests import resampling_reference as reference


class TestSystematicResample:
    def test_count_and_range(self):
        indices = systematic_resample([1, 2, 3], count=12, offset=0.5)
        assert indices.shape == (12,)
        assert indices.min() >= 0
        assert indices.max() <= 2

    def test_multiplicity_proportional_to_weight(self):
        """Systematic resampling replicates within one of the exact
        proportional share (the paper's 'multiplicities proportional to
        their previous weights')."""
        weights = np.array([1.0, 3.0])
        indices = systematic_resample(weights, count=100, offset=0.25)
        counts = multiplicities(indices, 2)
        assert abs(counts[0] - 25) <= 1
        assert abs(counts[1] - 75) <= 1

    def test_degenerate_weights_fall_back_uniform(self):
        indices = systematic_resample([0.0, 0.0], count=4, offset=0.0)
        assert indices.shape == (4,)

    def test_zero_count(self):
        assert systematic_resample([1.0], 0, 0.0).shape == (0,)

    def test_offset_validated(self):
        with pytest.raises(ValueError):
            systematic_resample([1.0], 1, 1.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            systematic_resample([-1.0, 1.0], 2, 0.0)

    @given(
        weights=st.lists(st.floats(0.01, 10), min_size=1, max_size=20),
        count=st.integers(1, 200),
        offset=st.floats(0, 0.999),
    )
    @settings(max_examples=60, deadline=None)
    def test_proportionality_property(self, weights, count, offset):
        """Every particle's replica count is within 1 of its exact share."""
        indices = systematic_resample(weights, count, offset)
        counts = multiplicities(indices, len(weights))
        total = sum(weights)
        # the within-1 bound holds in exact arithmetic; the float share
        # can land an epsilon below/above it (cumulative-sum rounding)
        tolerance = 1e-9 * count
        for i, w in enumerate(weights):
            share = count * w / total
            assert share - 1 - tolerance <= counts[i] <= share + 1 + tolerance


class TestAllocateTargets:
    def test_proportional_split(self):
        targets = allocate_targets([1.0, 3.0], total_count=100)
        assert targets == [25, 75]

    def test_sums_to_total(self):
        targets = allocate_targets([1.0, 1.0, 1.0], total_count=100)
        assert sum(targets) == 100

    def test_zero_total_weight_uniform(self):
        targets = allocate_targets([0.0, 0.0, 0.0], total_count=10)
        assert sum(targets) == 10
        assert max(targets) - min(targets) <= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            allocate_targets([-1.0, 2.0], 10)

    @given(
        sums=st.lists(st.floats(0, 100), min_size=1, max_size=8),
        per_pe=st.integers(1, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation_property(self, sums, per_pe):
        n = len(sums)
        targets = allocate_targets(sums, total_count=per_pe * n)
        assert sum(targets) == per_pe * n
        assert all(t >= 0 for t in targets)


class TestPlanExchanges:
    def test_balanced_targets_no_flows(self):
        plan = plan_exchanges([10, 10], capacity=10)
        assert plan.kept == (10, 10)
        assert all(all(f == 0 for f in row) for row in plan.flows)

    def test_surplus_routes_to_deficit(self):
        plan = plan_exchanges([15, 5], capacity=10)
        assert plan.kept == (10, 5)
        assert plan.flows[0][1] == 5
        assert sum(plan.flows[0]) == 5
        assert sum(row[1] for row in plan.flows) == 5

    def test_multiway(self):
        plan = plan_exchanges([18, 2, 10], capacity=10)
        assert plan.kept == (10, 2, 10)
        assert plan.flows[0][1] == 8
        assert sum(plan.flows[2]) == 0

    def test_imbalance_rejected(self):
        with pytest.raises(ValueError):
            plan_exchanges([5, 5], capacity=10)

    @given(
        data=st.data(),
        n=st.integers(1, 6),
        capacity=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_pe_ends_at_capacity(self, data, n, capacity):
        """Conservation: kept + received == capacity at every PE."""
        total = capacity * n
        # random composition of `total` over n PEs
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)
            )
        )
        targets = []
        previous = 0
        for cut in cuts + [total]:
            targets.append(cut - previous)
            previous = cut
        plan = plan_exchanges(targets, capacity)
        for pe in range(n):
            received = sum(row[pe] for row in plan.flows)
            assert plan.kept[pe] + received == capacity
            assert plan.kept[pe] + sum(plan.flows[pe]) == targets[pe]


# -- exactness against the numpy-array references ---------------------------

#: weights and partial sums that stress rounding: exact zeros, equal
#: values (remainder ties), subnormals, tiny and huge magnitudes
magnitudes = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, 0.5, 1e-300, 5e-324, 1e300, 1.7976931348623157e308]),
    st.floats(0, 1e-200),
    st.floats(0, 10),
    st.floats(0, 1e308),
)


def outcome(function, *args):
    """``("ok", result)`` or ``("raises", type, text)`` of one call."""
    try:
        with np.errstate(all="ignore"):
            result = function(*args)
    except Exception as exc:  # the error itself is the compared outcome
        return ("raises", type(exc), str(exc))
    return ("ok", result)


def same_outcome(new, old):
    assert new[0] == old[0], (new, old)
    if new[0] == "raises":
        assert new[1:] == old[1:]
        return
    new_value, old_value = new[1], old[1]
    if isinstance(old_value, np.ndarray):
        assert new_value.dtype == old_value.dtype
        assert np.array_equal(new_value, old_value)
    else:
        assert new_value == old_value
        # repr tells a Python int from a numpy integer of equal value
        assert repr(new_value) == repr(old_value)


class TestExactAgainstReference:
    """The scalar plan and the leaner systematic draw return what the
    numpy-array versions returned, value for value and error for error."""

    @given(
        sums=st.lists(magnitudes, min_size=1, max_size=10),
        total_count=st.integers(0, 600),
    )
    @settings(max_examples=400, deadline=None)
    def test_allocate_targets(self, sums, total_count):
        same_outcome(
            outcome(allocate_targets, sums, total_count),
            outcome(reference.allocate_targets, sums, total_count),
        )

    @given(
        share=st.integers(1, 50),
        n=st.integers(1, 10),
        per_pe=st.integers(1, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_allocate_targets_remainder_ties(self, share, n, per_pe):
        """Equal sums split the remainder by PE index."""
        sums = [float(share)] * n
        same_outcome(
            outcome(allocate_targets, sums, per_pe * n + n - 1),
            outcome(reference.allocate_targets, sums, per_pe * n + n - 1),
        )

    @pytest.mark.parametrize("n", range(1, 11))
    def test_allocate_targets_zero_total(self, n):
        for total_count in (0, 1, n - 1, n, 7 * n + 3):
            same_outcome(
                outcome(allocate_targets, [0.0] * n, total_count),
                outcome(reference.allocate_targets, [0.0] * n, total_count),
            )

    @given(
        sums=st.lists(
            st.one_of(magnitudes, st.floats(-10, -1e-300)),
            min_size=0,
            max_size=10,
        ),
        total_count=st.integers(0, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_allocate_targets_errors(self, sums, total_count):
        """Negative sums and an empty vector fail as they always did."""
        same_outcome(
            outcome(allocate_targets, sums, total_count),
            outcome(reference.allocate_targets, sums, total_count),
        )

    def test_negative_is_reported_before_non_finite(self):
        for sums in ([float("nan"), -1.0], [-1.0, float("inf")],
                     [float("-inf"), 1.0]):
            new = outcome(allocate_targets, sums, 10)
            assert new == ("raises", ValueError,
                           "partial weight sums must be non-negative")
            assert new == outcome(reference.allocate_targets, sums, 10)

    @given(
        data=st.data(),
        n=st.integers(1, 10),
        capacity=st.integers(-1, 40),
        skew=st.integers(-2, 2),
    )
    @settings(max_examples=300, deadline=None)
    def test_plan_exchanges(self, data, n, capacity, skew):
        total = max(capacity, 0) * n + skew
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(0, max(total, 0)),
                    min_size=n - 1,
                    max_size=n - 1,
                )
            )
        )
        targets, previous = [], 0
        for cut in cuts + [max(total, 0)]:
            targets.append(cut - previous)
            previous = cut
        same_outcome(
            outcome(plan_exchanges, targets, capacity),
            outcome(reference.plan_exchanges, targets, capacity),
        )

    @given(
        weights=st.lists(magnitudes, min_size=1, max_size=12),
        count=st.integers(-1, 200),
        offset=st.one_of(
            st.floats(0, 1, exclude_max=True),
            st.sampled_from([0.0, 0.5, 1.0, -0.25, 1.5]),
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_systematic_resample(self, weights, count, offset):
        same_outcome(
            outcome(systematic_resample, weights, count, offset),
            outcome(reference.systematic_resample, weights, count, offset),
        )

    @given(
        weights=st.lists(
            st.one_of(magnitudes, st.floats(-10, -1e-300)),
            min_size=0,
            max_size=6,
        ),
        count=st.integers(-1, 5),
        offset=st.sampled_from([0.0, 0.5, 1.0, -0.25]),
    )
    @settings(max_examples=300, deadline=None)
    def test_systematic_resample_error_precedence(self, weights, count, offset):
        """count < 0, then count == 0 (no check), then shape, negative
        weights and offset, in that order, as before."""
        same_outcome(
            outcome(systematic_resample, weights, count, offset),
            outcome(reference.systematic_resample, weights, count, offset),
        )

    def test_systematic_resample_rejects_2d_weights(self):
        weights = np.ones((2, 2))
        same_outcome(
            outcome(systematic_resample, weights, 3, 0.5),
            outcome(reference.systematic_resample, weights, 3, 0.5),
        )

    def test_nan_next_to_a_negative_weight_reports_the_negative(self):
        weights = [float("nan"), -1.0]
        new = outcome(systematic_resample, weights, 2, 0.5)
        assert new == ("raises", ValueError, "weights must be non-negative")
        assert new == outcome(reference.systematic_resample, weights, 2, 0.5)

    @given(
        indices=st.lists(st.integers(-2, 12), max_size=40),
        population=st.integers(1, 10),
    )
    @settings(max_examples=150, deadline=None)
    def test_multiplicities(self, indices, population):
        same_outcome(
            outcome(multiplicities, indices, population),
            outcome(reference.multiplicities_loop, indices, population),
        )


class TestNonFiniteInputs:
    """NaN or infinite weights fail loudly instead of yielding garbage."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_allocate_targets(self, bad):
        with pytest.raises(ValueError, match="must be finite") as info:
            allocate_targets([bad, 1.0], 10)
        assert f"got {bad!r} at index 0" in str(info.value)

    def test_allocate_targets_names_the_first_bad_sum(self):
        with pytest.raises(ValueError, match=r"got inf at index 2"):
            allocate_targets([1.0, 2.0, float("inf"), float("nan")], 10)

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_allocate_targets_past_the_pairwise_boundary(self, n):
        sums = [1.0] * n
        sums[n - 1] = float("nan")
        with pytest.raises(ValueError, match=f"got nan at index {n - 1}"):
            allocate_targets(sums, 10 * n)

    def test_overflowing_finite_sums_are_not_rejected(self):
        sums = [1.7976931348623157e308] * 2
        same_outcome(
            outcome(allocate_targets, sums, 10),
            outcome(reference.allocate_targets, sums, 10),
        )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_systematic_resample(self, bad):
        with pytest.raises(ValueError, match="weights must be finite") as info:
            systematic_resample([1.0, bad], 4, 0.5)
        assert f"got {bad!r} at index 1" in str(info.value)

    def test_zero_count_still_skips_validation(self):
        assert systematic_resample([float("nan")], 0, 0.5).shape == (0,)


class TestFloat64Sum:
    """The plan's total is numpy's float64 sum, bit for bit, on both
    sides of the length where numpy switches to pairwise summation."""

    @staticmethod
    def numpy_total(values):
        return float(np.asarray(values, dtype=np.float64).sum())

    @pytest.mark.parametrize("n", range(0, 20))
    def test_random_lists(self, n):
        rng = np.random.RandomState(n)
        for _ in range(500):
            exponents = rng.randint(-300, 300, size=n)
            values = [float(v) for v in rng.rand(n) * 10.0 ** exponents]
            assert _float64_sum(values).hex() == self.numpy_total(values).hex()

    @pytest.mark.parametrize("n", range(0, 12))
    def test_signed_zeros(self, n):
        values = [-0.0] * n
        assert _float64_sum(values).hex() == self.numpy_total(values).hex()

    @given(values=st.lists(magnitudes, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_property(self, values):
        with np.errstate(all="ignore"):
            expected = self.numpy_total(values)
            actual = _float64_sum(values)
        assert actual.hex() == expected.hex()
