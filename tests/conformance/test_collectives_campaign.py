"""Conformance coverage for collective connections.

The generator can place one broadcast/gather connection per graph
(``GraphShape.collective_prob``); the spec layer derives balanced rates
for it from the repetitions vector.  These tests pin the generator
distribution, the rate algebra, and — the actual conformance statement —
a 30-seed campaign over collective-bearing graphs passing the full
oracle stack.
"""

from repro.conformance import CampaignConfig, run_campaign
from repro.conformance.generator import GraphShape, generate_spec
from repro.conformance.spec import GraphSpec, build_case

SHAPE = GraphShape(collective_prob=0.7)


class TestGenerator:
    def test_collective_prob_zero_emits_none(self):
        for seed in range(20):
            assert generate_spec(seed, GraphShape()).connections == ()

    def test_collective_prob_one_emits_on_every_eligible_seed(self):
        shape = GraphShape(collective_prob=1.0)
        specs = [generate_spec(seed, shape) for seed in range(20)]
        with_conn = [s for s in specs if s.connections]
        assert len(with_conn) >= 15  # only graphs with < 3 actors skip
        kinds = {s.connections[0].kind for s in with_conn}
        assert kinds == {"broadcast", "gather"}

    def test_connection_endpoints_keep_the_dag_forward(self):
        """Broadcast hubs precede their branches and gather branches
        precede their hub, so the added edges never close a cycle."""
        shape = GraphShape(collective_prob=1.0)
        for seed in range(30):
            spec = generate_spec(seed, shape)
            for conn in spec.connections:
                order = {a.name: i for i, a in enumerate(spec.actors)}
                if conn.kind == "broadcast":
                    assert all(
                        order[b] > order[conn.hub] for b in conn.branches
                    )
                else:
                    assert all(
                        order[b] < order[conn.hub] for b in conn.branches
                    )

    def test_spec_json_round_trip(self):
        shape = GraphShape(collective_prob=1.0)
        spec = next(
            generate_spec(seed, shape)
            for seed in range(20)
            if generate_spec(seed, shape).connections
        )
        assert GraphSpec.from_json(spec.to_json()) == spec


class TestRates:
    def test_connection_rates_balance_every_branch(self):
        """Every member edge moves the same token count per iteration:
        hub tokens (per branch for gather) == branch tokens."""
        shape = GraphShape(collective_prob=1.0)
        checked = 0
        for seed in range(20):
            spec = generate_spec(seed, shape)
            reps = {a.name: a.repetitions for a in spec.actors}
            for conn in spec.connections:
                hub_rate, branch_rates = spec.resolved_connection_rates(conn)
                factor = len(conn.branches) if conn.kind == "gather" else 1
                hub_tokens = reps[conn.hub] * hub_rate // factor
                for branch, rate in zip(conn.branches, branch_rates):
                    assert reps[branch] * rate == hub_tokens
                checked += 1
        assert checked >= 10

    def test_case_builds_and_validates(self):
        shape = GraphShape(collective_prob=1.0)
        for seed in range(10):
            spec = generate_spec(seed, shape)
            case = build_case(spec)
            case.graph.validate()
            if spec.connections:
                assert case.graph.collective_connections or all(
                    len(c.branches) == 1 for c in spec.connections
                )


class TestCampaign:
    def test_thirty_seed_campaign_with_collectives_passes(self):
        report = run_campaign(CampaignConfig(seeds=30, quick=True, shape=SHAPE))
        assert report["checked"] == 30
        assert report["failing_seeds"] == []
        # the statement is only meaningful if collectives actually occur
        n_with = sum(
            1 for seed in range(30) if generate_spec(seed, SHAPE).connections
        )
        assert n_with >= 10

    def test_collective_campaign_is_deterministic(self):
        config = CampaignConfig(seeds=4, quick=True, shape=SHAPE)
        first = run_campaign(config)
        second = run_campaign(config)
        assert first["cases"] == second["cases"]
