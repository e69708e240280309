"""Unit tests for conformance specs: validation, rates, serialisation."""

import pytest

from repro.conformance import (
    ActorSpec,
    EdgeSpec,
    GraphSpec,
    SpecError,
    build_case,
)


def two_actor_spec(**edge_kwargs):
    edge = EdgeSpec(src="a0", snk="a1", **edge_kwargs)
    return GraphSpec(
        seed=1,
        actors=(ActorSpec("a0", 2, 5), ActorSpec("a1", 3, 7)),
        edges=(edge,),
        n_pes=2,
        assignment=(("a0", 0), ("a1", 1)),
    )


class TestValidation:
    def test_rejects_bad_actor(self):
        with pytest.raises(SpecError):
            ActorSpec("", 1, 1)
        with pytest.raises(SpecError):
            ActorSpec("a", 0, 1)
        with pytest.raises(SpecError):
            ActorSpec("a", 1, 0)

    def test_rejects_unknown_edge_endpoint(self):
        with pytest.raises(SpecError, match="unknown"):
            GraphSpec(
                seed=0,
                actors=(ActorSpec("a0", 1, 1),),
                edges=(EdgeSpec(src="a0", snk="ghost"),),
                n_pes=1,
                assignment=(("a0", 0),),
            )

    def test_rejects_unassigned_actor(self):
        with pytest.raises(SpecError, match="no PE assignment"):
            GraphSpec(
                seed=0,
                actors=(ActorSpec("a0", 1, 1),),
                edges=(),
                n_pes=1,
                assignment=(),
            )

    def test_rejects_pe_out_of_range(self):
        with pytest.raises(SpecError, match="out of range"):
            GraphSpec(
                seed=0,
                actors=(ActorSpec("a0", 1, 1),),
                edges=(),
                n_pes=1,
                assignment=(("a0", 3),),
            )

    def test_rejects_dynamic_edge_with_delay(self):
        with pytest.raises(SpecError, match="delay"):
            EdgeSpec(
                src="a",
                snk="b",
                dynamic=True,
                delay_tokens=2,
                dyn_bound=3,
                rate_sequence=(1,),
            )

    def test_rejects_rate_sequence_outside_bound(self):
        with pytest.raises(SpecError, match="outside"):
            EdgeSpec(
                src="a", snk="b", dynamic=True, dyn_bound=2,
                rate_sequence=(3,),
            )

    def test_dynamic_edge_needs_equal_repetitions(self):
        spec = two_actor_spec(dynamic=True, dyn_bound=2, rate_sequence=(1, 2))
        with pytest.raises(SpecError, match="equal"):
            build_case(spec)


class TestDerivedRates:
    def test_rates_satisfy_balance_equation(self):
        spec = two_actor_spec(rate_factor=2)
        prod, cons = spec.resolved_rates(spec.edges[0])
        # q = (2, 3): lcm 6, k = 2 -> prod 6, cons 4; 2*6 == 3*4
        assert (prod, cons) == (6, 4)
        assert 2 * prod == 3 * cons

    def test_build_case_materialises_rates(self):
        spec = two_actor_spec(rate_factor=1)
        case = build_case(spec)
        edge = case.graph.edges[0]
        assert edge.source.rate == 3
        assert edge.sink.rate == 2
        assert case.partition.n_pes == 2


class TestSerialisation:
    def test_json_roundtrip(self):
        spec = two_actor_spec(rate_factor=2, delay_tokens=4)
        assert GraphSpec.from_json(spec.to_json()) == spec

    def test_json_roundtrip_dynamic(self):
        edge = EdgeSpec(
            src="a0", snk="a1", dynamic=True, dyn_bound=3,
            rate_sequence=(1, 3, 2),
        )
        spec = GraphSpec(
            seed=9,
            actors=(ActorSpec("a0", 1, 5), ActorSpec("a1", 1, 7)),
            edges=(edge,),
            n_pes=1,
            assignment=(("a0", 0), ("a1", 0)),
        )
        assert GraphSpec.from_json(spec.to_json()) == spec

    def test_rejects_foreign_schema(self):
        with pytest.raises(SpecError, match="schema"):
            GraphSpec.from_json({"schema": "something/else"})


class TestKernels:
    def test_kernels_are_deterministic(self):
        spec = two_actor_spec()
        streams = []
        for _ in range(2):
            case = build_case(spec)
            case.tap.begin("probe")
            outputs = case.graph.get_actor("a0").fire(0, {})
            streams.append(outputs)
        assert streams[0] == streams[1]
        assert len(streams[0]["o0"]) == 3  # the resolved producer rate

    def test_tap_records_per_run(self):
        case = build_case(two_actor_spec())
        case.tap.begin("first")
        case.graph.get_actor("a0").fire(0, {})
        case.tap.begin("second")
        assert case.tap.streams("first")["a0"]
        assert case.tap.streams("second") == {}
        assert set(case.tap.runs) == {"first", "second"}


class TestBatchFields:
    def test_defaults(self):
        spec = two_actor_spec()
        assert spec.batch == 1
        assert spec.accelerators == ()

    def test_rejects_bad_batch(self):
        edge = EdgeSpec(src="a0", snk="a1")
        with pytest.raises(SpecError, match="batch"):
            GraphSpec(
                seed=1,
                actors=(ActorSpec("a0", 2, 5), ActorSpec("a1", 3, 7)),
                edges=(edge,),
                n_pes=2,
                assignment=(("a0", 0), ("a1", 1)),
                batch=0,
            )

    def test_rejects_bad_accelerators(self):
        edge = EdgeSpec(src="a0", snk="a1")

        def make(accelerators):
            return GraphSpec(
                seed=1,
                actors=(ActorSpec("a0", 2, 5), ActorSpec("a1", 3, 7)),
                edges=(edge,),
                n_pes=2,
                assignment=(("a0", 0), ("a1", 1)),
                accelerators=accelerators,
            )

        with pytest.raises(SpecError):
            make((2,))  # out of range
        with pytest.raises(SpecError):
            make((0, 0))  # duplicate

    def test_json_roundtrip_with_batch(self):
        edge = EdgeSpec(src="a0", snk="a1")
        spec = GraphSpec(
            seed=1,
            actors=(ActorSpec("a0", 2, 5), ActorSpec("a1", 3, 7)),
            edges=(edge,),
            n_pes=2,
            assignment=(("a0", 0), ("a1", 1)),
            batch=4,
            accelerators=(0, 1),
        )
        assert GraphSpec.from_json(spec.to_json()) == spec

    def test_legacy_documents_default_unbatched(self):
        # pre-batching campaign corpora have neither key: they must
        # load as unbatched all-gpp specs, not raise
        document = two_actor_spec().to_json()
        document.pop("batch")
        document.pop("accelerators")
        loaded = GraphSpec.from_json(document)
        assert loaded.batch == 1
        assert loaded.accelerators == ()

    def test_accelerated_case_compiles_with_batch(self):
        from dataclasses import replace

        spec = replace(
            two_actor_spec(), batch=3, accelerators=(0, 1)
        )
        case = build_case(spec)
        assert case.partition.requested_batch == 3
        assert case.partition.has_accelerators


class TestRepetitions:
    """``GraphSpec.repetitions`` is the built graph's repetitions vector,
    also when the per-actor counts share a factor."""

    def spec(self, counts, edges):
        return GraphSpec(
            seed=1,
            actors=tuple(
                ActorSpec(f"a{i}", q, 1) for i, q in enumerate(counts)
            ),
            edges=tuple(EdgeSpec(src=u, snk=v) for u, v in edges),
            n_pes=1,
            assignment=tuple((f"a{i}", 0) for i in range(len(counts))),
        )

    @pytest.mark.parametrize(
        "counts, edges, want",
        [
            ((2, 3), [("a0", "a1")], (2, 3)),
            ((2, 4), [("a0", "a1")], (1, 2)),
            # two components, each reduced on its own
            ((4, 6, 3, 9), [("a0", "a1"), ("a2", "a3")], (2, 3, 1, 3)),
            ((6, 4, 5), [("a0", "a1")], (3, 2, 1)),
        ],
    )
    def test_matches_repetitions_vector(self, counts, edges, want):
        from repro.dataflow.sdf import repetitions_vector

        spec = self.spec(counts, edges)
        expected = {f"a{i}": q for i, q in enumerate(want)}
        assert spec.repetitions() == expected
        assert repetitions_vector(build_case(spec).graph) == expected
