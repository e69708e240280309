"""The particle-filter kernels equal their plain-expression forms.

E and U compute with in-place ufuncs and S2 derives its plan on Python
scalars from one validated weight sum.  Each must return bit-for-bit
what the straightforward formulation returns: the model's expressions
evaluated out of place, and S2 built from the numpy-array resampling
references (:mod:`tests.resampling_reference`).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.particle_filter.model import CrackGrowthModel
from repro.apps.particle_filter.pipeline import (
    _LocalResampler,
    _Updater,
    resample_offset,
)
from tests import resampling_reference as reference

lengths_strategy = st.lists(
    st.floats(1e-3, 50.0), min_size=1, max_size=64
).map(lambda values: np.array(values, dtype=np.float64))


def identical(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


@given(lengths=lengths_strategy, seed=st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_propagate_is_the_expression(lengths, seed):
    model = CrackGrowthModel()
    rng = np.random.RandomState(seed)
    delta_k = model.stress_factor * np.sqrt(lengths)
    growth = model.paris_c * delta_k ** model.paris_m * model.cycles_per_step
    noise = np.exp(model.process_noise * rng.randn(lengths.shape[0]))
    expected = lengths + growth * noise
    actual = model.propagate(lengths, np.random.RandomState(seed))
    assert identical(actual, expected)


@given(lengths=lengths_strategy, observation=st.floats(0.0, 60.0))
@settings(max_examples=100, deadline=None)
def test_likelihood_is_the_expression(lengths, observation):
    model = CrackGrowthModel()
    z = (observation - lengths) / model.measurement_noise
    assert identical(model.likelihood(observation, lengths), np.exp(-0.5 * z * z))


def test_updater_block_is_the_column_stack():
    model = CrackGrowthModel()
    particles = 2.0 + np.random.RandomState(3).rand(17)
    updater = _Updater(model, [2.4], 0, [])
    weighted = updater.kernel(0, {"predicted": particles})["weighted"]
    expected = np.column_stack((particles, model.likelihood(2.4, particles)))
    assert identical(weighted, expected)
    assert weighted.flags.c_contiguous


def reference_s2(capacity, n_pes, pe, firing_index, inputs):
    """S2 as it was written against the numpy-array resampling plan."""
    weighted = np.asarray(inputs["pass"], dtype=np.float64)
    particles = np.ascontiguousarray(weighted[:, 0])
    weights = np.ascontiguousarray(weighted[:, 1])
    sums = []
    for other in range(n_pes):
        if other == pe:
            sums.append(float(weights.sum()))
        else:
            sums.append(float(inputs[f"wsum_from_{other}"][0]))
    targets = reference.allocate_targets(sums, capacity * n_pes)
    plan = reference.plan_exchanges(targets, capacity)
    indices = reference.systematic_resample(
        weights, targets[pe], resample_offset(firing_index)
    )
    replicas = particles[indices]
    outputs = {}
    cursor = plan.kept[pe]
    outputs["kept"] = replicas[:cursor]
    for other in range(n_pes):
        if other == pe:
            continue
        shipped = plan.flows[pe][other]
        outputs[f"export_to_{other}"] = replicas[cursor : cursor + shipped]
        cursor += shipped
    return outputs


@given(
    data=st.data(),
    n_pes=st.integers(1, 10),
    capacity=st.integers(2, 40),
    firing_index=st.integers(0, 1000),
)
@settings(max_examples=150, deadline=None)
def test_local_resampler_matches_the_reference_plan(
    data, n_pes, capacity, firing_index
):
    pe = data.draw(st.integers(0, n_pes - 1))
    scale = data.draw(st.sampled_from([1.0, 1e-300, 1e300]))
    rng = np.random.RandomState(data.draw(st.integers(0, 2**31 - 1)))
    weighted = np.empty((capacity, 2))
    weighted[:, 0] = 2.0 + rng.rand(capacity)
    weighted[:, 1] = rng.rand(capacity) * scale
    if data.draw(st.booleans()):
        weighted[:, 1] = 0.0  # this PE holds no weight at all
    inputs = {"pass": weighted}
    for other in range(n_pes):
        if other != pe:
            inputs[f"wsum_from_{other}"] = [float(rng.rand() * capacity * scale)]
    with np.errstate(all="ignore"):
        expected = reference_s2(capacity, n_pes, pe, firing_index, inputs)
        actual = _LocalResampler(capacity, n_pes, pe).kernel(
            firing_index, inputs
        )
    assert list(actual) == list(expected)
    for port in expected:
        assert identical(actual[port], expected[port])
