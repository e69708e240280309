"""The memoised conformance kernel against the reference kernel.

:func:`repro.conformance.spec._make_kernel` derives each firing's tokens
once per case and replays them from the tap's memo; the reference in
``tests/token_reference.py`` recomputes every firing from scratch.  On
random firings, repeated ones included, both must give the same outputs
and the same log rows, and a value whose text changes (an int that
turns into a float) must miss the memo.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance import build_case, generate_spec
from repro.conformance.spec import TokenTap, _make_kernel
from tests.token_reference import reference_firing

tokens = st.one_of(
    st.none(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False),
)
ports = st.sampled_from(["i0", "i1", "ci2", "i10"])
firing_inputs = st.dictionaries(ports, st.lists(tokens, max_size=5), max_size=3)


def producers_for(counts):
    return [
        (f"o{index}", lambda k, n=count: n + k % 2)
        for index, count in enumerate(counts)
    ]


@given(
    counts=st.lists(st.integers(min_value=0, max_value=4), max_size=3),
    firings=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), firing_inputs),
        min_size=1,
        max_size=12,
    ),
    repeat=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=200, deadline=None)
def test_memoised_kernel_equals_the_reference(counts, firings, repeat):
    producers = producers_for(counts)
    tap = TokenTap()
    kernel = _make_kernel("a", producers, tap)
    for run in range(repeat):
        tap.begin(f"run{run}")
        expected_rows = []
        for firing_index, inputs in firings:
            want, row = reference_firing("a", producers, firing_index, inputs)
            got = kernel(firing_index, inputs)
            assert got == want
            assert all(type(values) is list for values in got.values())
            expected_rows.append(row)
        assert tap.streams(f"run{run}").get("a", []) == expected_rows


def test_outputs_are_fresh_lists_on_a_memo_hit():
    tap = TokenTap()
    kernel = _make_kernel("a", producers_for([3]), tap)
    first = kernel(0, {"i0": [1, 2]})
    first["o0"].append("mutated")
    assert kernel(0, {"i0": [1, 2]}) == reference_firing(
        "a", producers_for([3]), 0, {"i0": [1, 2]}
    )[0]


def test_an_int_turned_float_changes_the_tokens():
    tap = TokenTap()
    producers = producers_for([2])
    kernel = _make_kernel("a", producers, tap)
    as_int = kernel(1, {"i0": [7]})
    as_float = kernel(1, {"i0": [7.0]})
    assert as_int != as_float
    assert as_float == reference_firing("a", producers, 1, {"i0": [7.0]})[0]
    assert len(tap.memo("a")) == 2


def test_equal_length_inputs_do_not_share_an_entry():
    tap = TokenTap()
    producers = producers_for([2])
    kernel = _make_kernel("a", producers, tap)
    for value in (1, 2, 1):
        inputs = {"i0": [value, None]}
        assert kernel(0, inputs) == reference_firing(
            "a", producers, 0, inputs
        )[0]
    assert kernel(0, {"i0": [1]}) != kernel(0, {"i0": [2]})


def test_every_run_of_a_case_shares_one_memo():
    """The reference and the SPI and MPI runs of a case fire the same
    firings on the same inputs: later runs replay the memo."""
    from repro.conformance.reference import run_reference
    from repro.mpi.baseline import MpiSystem
    from repro.spi import SpiSystem

    case = build_case(generate_spec(3))
    reference = run_reference(case, iterations=3)
    sizes = {a.name: len(case.tap.memo(a.name)) for a in case.graph.actors}
    assert sum(sizes.values()) > 0
    case.tap.begin("spi")
    SpiSystem.compile(case.graph, case.partition).run(iterations=3)
    case.tap.begin("mpi")
    MpiSystem.compile(case.graph, case.partition).run(iterations=3)
    assert {name: len(case.tap.memo(name)) for name in sizes} == sizes
    assert case.tap.streams("spi") == reference
    assert case.tap.streams("mpi") == reference
