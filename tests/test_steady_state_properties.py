"""Property tests for steady-state period detection.

Two invariants tie the detected period back to the dataflow theory:

* **repetitions-vector consistency** — one sequencer iteration is one
  pass over the PE's firing script (the PASS per-PE order, every actor
  fired ``q(v)`` times) plus the SPI_initialize slot, so the per-period
  firing delta on every PE must be exactly
  ``P * (len(script[pe]) + 1)``.  The warp replays these deltas, so a
  wrong multiple here would corrupt extrapolated firing counts.
* **MCM lower bound** — the observed steady-state period per iteration
  can never beat the maximum cycle mean of the self-timed graph; a
  detected period below it would mean the hash matched states that are
  not actually equivalent.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance import GraphShape, build_case, generate_spec
from repro.spi import SpiSystem

#: static-rate graphs: undeclared dynamic actors never arm detection
SHAPE = GraphShape(dynamic_prob=0.0)
ITERATIONS = 14


def _detected_run(seed: int):
    case = build_case(generate_spec(seed, SHAPE))
    system = SpiSystem.compile(case.graph, case.partition)
    result = system.run(
        iterations=ITERATIONS, max_cycles=10_000_000, steady_state="auto"
    )
    return system, result


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_period_firings_are_repetition_vector_multiples(seed):
    system, result = _detected_run(seed)
    report = result.steady_state
    if report is None or report.detected_at is None:
        return
    period = report.period_iterations
    script = system.schedule.firing_script()
    for pe_index, entries in script.items():
        if not entries:
            continue
        delta = report.period_delta.get((f"pe:{pe_index}", "firings"), 0)
        # + 1: the SPI_init op's slot cycles with the program (a no-op
        # after iteration 0, but still a counted firing)
        assert delta == period * (len(entries) + 1), (
            f"seed {seed} PE{pe_index}: {delta} firings over "
            f"{period} iteration(s) vs {len(entries)} script entries"
        )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_detected_period_respects_mcm_bound(seed):
    system, result = _detected_run(seed)
    report = result.steady_state
    if report is None or report.detected_at is None:
        return
    per_iteration = report.period_cycles / report.period_iterations
    mcm = system.estimated_iteration_period_cycles()
    assert per_iteration >= mcm - 1e-6, (
        f"seed {seed}: detected period {per_iteration:.3f} cycles/iter "
        f"beats the MCM bound {mcm:.3f}"
    )
