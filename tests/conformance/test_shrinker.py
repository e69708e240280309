"""Shrinker tests: minimisation and the pytest repro."""

from repro.conformance import (
    build_case,
    generate_spec,
    oracle_failure_predicate,
    render_pytest_repro,
    run_oracle_stack,
    shrink,
)


def _mutated_bound(plan):
    """Occupancy bound one message too small — the injected defect."""
    return max(0, plan.capacity_messages - 1) * plan.message_payload_bytes


def _first_caught_seed():
    for seed in range(40):
        case = build_case(generate_spec(seed))
        report = run_oracle_stack(case, occupancy_bound_fn=_mutated_bound)
        if any(v.oracle == "occupancy" for v in report.violations):
            return seed
    raise AssertionError("no seed tripped the mutated occupancy bound")


class TestMutationShrinks:
    def test_injected_bound_off_by_one_shrinks_small(self):
        """ISSUE acceptance: the occupancy-vs-B(e) oracle catches an
        intentionally injected off-by-one and the shrinker reduces the
        counterexample to at most 4 actors."""
        seed = _first_caught_seed()
        predicate = oracle_failure_predicate(
            "occupancy", occupancy_bound_fn=_mutated_bound
        )
        spec = generate_spec(seed)
        assert predicate(spec)
        result = shrink(spec, predicate)
        assert len(result.spec.actors) <= 4
        assert predicate(result.spec)  # the minimum still fails
        assert result.steps > 0

    def test_shrink_is_a_fixpoint_wrt_candidates(self):
        seed = _first_caught_seed()
        predicate = oracle_failure_predicate(
            "occupancy", occupancy_bound_fn=_mutated_bound
        )
        result = shrink(generate_spec(seed), predicate)
        from repro.conformance.shrinker import _candidates

        assert not any(
            predicate(candidate) for candidate in _candidates(result.spec)
        )


class TestCandidateSafety:
    def test_invalid_candidates_are_skipped(self):
        """Candidate specs that fail to build count as not-failing."""
        predicate = oracle_failure_predicate("occupancy")
        spec = generate_spec(0)
        # predicate on a valid, passing spec is simply False
        assert predicate(spec) is False

    def test_shrink_requires_nothing_when_already_minimal(self):
        spec = generate_spec(0)
        result = shrink(spec, lambda s: True, max_attempts=200)
        assert len(result.spec.actors) == 1
        assert result.spec.n_pes == 1


class TestArtefacts:
    def test_pytest_repro_is_executable_source(self):
        spec = generate_spec(3)
        source = render_pytest_repro(spec, "occupancy")
        namespace = {}
        exec(compile(source, "<repro>", "exec"), namespace)  # noqa: S102
        test_fn = namespace[f"test_seed_{spec.seed}_conforms"]
        test_fn()  # seed 3 conforms, so the generated test passes
