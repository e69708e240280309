"""Distributed particle filter dataflow (paper figs. 4 and 5).

For ``n`` PEs and ``N`` particles, each PE owns ``N/n`` particles and
runs the full chain **E** (estimate/propagate) → **U** (update weights
from the external observation) → **S** (selection/resampling), where S
is split into the paper's three phases:

1. **S1** — compute the partial (local) weight sum and communicate it to
   every other PE (*known length* → **SPI_static**);
2. **S2** — local resampling: replicate local particles with
   multiplicities proportional to their weights, against the globally
   agreed per-PE targets;
3. **S3** — intra-resampling: ship excess replicas to deficit PEs so
   every PE re-enters the next iteration with exactly ``N/n`` particles
   (*run-time varying length* → **SPI_dynamic**).

All PEs derive the same targets and exchange plan from the same partial
sums (deterministic :mod:`~repro.apps.particle_filter.resampling`
functions and a shared per-iteration resampling offset), which is what
makes the distributed filter's particle population a permutation of a
sequential filter's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.apps.particle_filter.model import CrackGrowthModel
from repro.apps.particle_filter.resampling import (
    _systematic_indices,
    _weight_total,
    allocate_targets,
    plan_exchanges,
)
from repro.dataflow.dynamic import DynamicRate
from repro.dataflow.graph import DataflowGraph
from repro.mapping.partition import Partition
from repro.platform.fpga import ResourceVector, estimate_datapath

__all__ = [
    "DistributedParticleFilterSystem",
    "build_particle_filter_graph",
    "resample_offset",
    "pf_pe_resources",
]

PARTICLE_BYTES = 4  # 32-bit fixed-point crack length
WEIGHTED_BYTES = 8  # particle + weight
WSUM_BYTES = 8  # 64-bit weight accumulator

#: cycle costs per particle of the hardware datapaths
PROPAGATE_CYCLES_PER_PARTICLE = 24  # sqrt + pow + MACs + noise
LIKELIHOOD_CYCLES_PER_PARTICLE = 16  # diff, square, exp-LUT
SUM_CYCLES_PER_PARTICLE = 1
RESAMPLE_CYCLES_PER_PARTICLE = 2
ASSEMBLE_CYCLES_PER_PARTICLE = 1


def _sum_left_to_right(values) -> float:
    """``0.0 + v[0] + v[1] + ...`` in float64, one addition at a time.

    This is what the builtin ``sum`` of floats computed up to Python
    3.11; from 3.12 on the builtin is compensated (``sum([1e16, 1.0,
    1.0])`` is ``1.0000000000000002e16`` there), so the filter's sums
    use numpy's sequential ``cumsum`` instead.  The leading ``0.0 +``
    keeps the builtin's start value: a sum of negative zeros is
    ``0.0``.
    """
    running = np.asarray(values, dtype=np.float64).cumsum()
    if not len(running):
        return 0.0
    return 0.0 + float(running[-1])


def resample_offset(iteration: int) -> float:
    """Deterministic per-iteration systematic-resampling offset.

    Every PE evaluates the same function of the iteration index, so the
    distributed resampling uses one shared random number per iteration
    without any extra communication (a common trick: ship the seed, not
    the draws).
    """
    return (iteration * 0.6180339887498949) % 1.0


def pf_pe_resources(particles_per_pe: int) -> ResourceVector:
    """One PF processing element: E+U+S datapaths and particle memory.

    The propagate path needs sqrt/pow approximation (DSP-heavy), the
    update path an exponential LUT and multiplier, plus dual particle
    buffers — this is why "the computational requirement for the
    application 2 was relatively high and hence only 2 PEs could be
    accommodated" on the paper's device.
    """
    from repro.platform.fpga import estimate_fifo

    datapath = estimate_datapath(
        multipliers=26,  # sqrt/pow approximation, noise gen, exp, MACs
        adders=20,
        registers_bits=5600,
        logic_lut4=8200,
    )
    # function tables: exp() for the likelihood, sqrt/pow for Paris' law
    tables = estimate_datapath(state_bytes=8192)
    # dual-ported particle memories (current + next population)
    particle_memory = estimate_fifo(
        max(512, 2 * particles_per_pe * WEIGHTED_BYTES), force_bram=True
    )
    return datapath + tables + particle_memory


class _Estimator:
    """Actor E_i: propagate the PE's particles through the growth model."""

    def __init__(self, model: CrackGrowthModel, seed: int) -> None:
        self.model = model
        self.rng = np.random.RandomState(seed)

    def kernel(self, firing_index: int, inputs: Dict[str, list]) -> Dict[str, list]:
        particles = np.asarray(inputs["particles"], dtype=np.float64)
        return {"predicted": self.model.propagate(particles, self.rng)}


class _Updater:
    """Actor U_i: weight the particles against the external observation.

    Records the PE's partial estimate (weighted sum and weight total) in
    ``collector`` so the system can combine the global output of the
    paper's figure 4.
    """

    def __init__(
        self,
        model: CrackGrowthModel,
        observations: Sequence[float],
        pe_index: int,
        collector: List[dict],
    ) -> None:
        self.model = model
        self.observations = list(observations)
        self.pe_index = pe_index
        self.collector = collector

    def kernel(self, firing_index: int, inputs: Dict[str, list]) -> Dict[str, list]:
        particles = np.asarray(inputs["predicted"], dtype=np.float64)
        observation = self.observations[firing_index % len(self.observations)]
        weights = self.model.likelihood(observation, particles)
        self.collector.append(
            {
                "iteration": firing_index,
                "pe": self.pe_index,
                "weighted_sum": float(particles @ weights),
                "weight_total": float(weights.sum()),
            }
        )
        weighted = np.empty((particles.shape[0], 2))
        weighted[:, 0] = particles
        weighted[:, 1] = weights
        return {"weighted": weighted}


class _PartialSum:
    """Actor S1_i: local weight sum, broadcast to the other PEs.

    With ``collectives`` the sum leaves through ONE ``wsum`` port that a
    broadcast connection fans out (one shared-payload wire transfer per
    link); without it the actor keeps the legacy per-destination
    ``wsum_to_{j}`` ports (n-1 independent point-to-point copies).
    """

    def __init__(
        self, n_pes: int, pe_index: int, collectives: bool = False
    ) -> None:
        self.n_pes = n_pes
        self.pe_index = pe_index
        self.collectives = collectives

    def kernel(self, firing_index: int, inputs: Dict[str, list]) -> Dict[str, list]:
        weighted = np.asarray(inputs["weighted"], dtype=np.float64)
        # left to right, as a per-token kernel would add them
        total = _sum_left_to_right(weighted[:, 1])
        outputs: Dict[str, list] = {"pass": weighted}
        if self.collectives:
            if self.n_pes > 1:
                outputs["wsum"] = [total]
        else:
            for other in range(self.n_pes):
                if other != self.pe_index:
                    outputs[f"wsum_to_{other}"] = [total]
        return outputs


class _LocalResampler:
    """Actor S2_i: local resampling against the global targets."""

    def __init__(self, capacity: int, n_pes: int, pe_index: int) -> None:
        self.capacity = capacity
        self.n_pes = n_pes
        self.pe_index = pe_index
        #: (pe, weight-sum input port, particle export port) per peer
        self._peers = [
            (other, f"wsum_from_{other}", f"export_to_{other}")
            for other in range(n_pes)
            if other != pe_index
        ]

    def kernel(self, firing_index: int, inputs: Dict[str, list]) -> Dict[str, list]:
        weighted = np.asarray(inputs["pass"], dtype=np.float64)
        # a contiguous column copy: numpy's pairwise sum depends on
        # layout; it is validated and summed once, and that one sum is
        # both this PE's partial sum and the resampling normaliser
        weights = np.ascontiguousarray(weighted[:, 1])
        own_total = _weight_total(weights)
        sums = [0.0] * self.n_pes
        sums[self.pe_index] = own_total
        for other, wsum_port, _ in self._peers:
            sums[other] = float(inputs[wsum_port][0])
        targets = allocate_targets(sums, self.capacity * self.n_pes)
        plan = plan_exchanges(targets, self.capacity)
        target = targets[self.pe_index]
        indices = _systematic_indices(
            weights, own_total, target, resample_offset(firing_index)
        )
        replicas = weighted[:, 0][indices]
        cursor = plan.kept[self.pe_index]
        outputs: Dict[str, list] = {"kept": replicas[:cursor]}
        flows = plan.flows[self.pe_index]
        for other, _, export_port in self._peers:
            shipped = flows[other]
            outputs[export_port] = replicas[cursor : cursor + shipped]
            cursor += shipped
        if cursor != target:
            raise RuntimeError("local resampling lost replicas")
        return outputs


class _Assembler:
    """Actor S3_i: merge kept + imported replicas into the next population."""

    def __init__(self, capacity: int, n_pes: int, pe_index: int) -> None:
        self.capacity = capacity
        self.n_pes = n_pes
        self.pe_index = pe_index

    def kernel(self, firing_index: int, inputs: Dict[str, list]) -> Dict[str, list]:
        population = np.concatenate(
            [np.asarray(inputs["kept"], dtype=np.float64)]
            + [
                np.asarray(inputs[f"import_from_{other}"], dtype=np.float64)
                for other in range(self.n_pes)
                if other != self.pe_index
            ]
        )
        if len(population) != self.capacity:
            raise RuntimeError(
                f"PE {self.pe_index}: assembled {len(population)} particles, "
                f"expected {self.capacity}"
            )
        return {"particles": population}


@dataclass
class DistributedParticleFilterSystem:
    """The figure-4/5 system: graph, partition, and estimate collector."""

    graph: DataflowGraph
    partition: Partition
    n_pes: int
    n_particles: int
    model: CrackGrowthModel
    observations: List[float]
    collected: List[dict] = field(default_factory=list)

    def estimates(self) -> List[float]:
        """Global per-iteration estimates combined from the PE partials."""
        by_iteration: Dict[int, List[dict]] = {}
        for record in self.collected:
            by_iteration.setdefault(record["iteration"], []).append(record)
        results: List[float] = []
        for iteration in sorted(by_iteration):
            records = by_iteration[iteration]
            if len(records) != self.n_pes:
                raise ValueError(
                    f"iteration {iteration}: partials from "
                    f"{len(records)} of {self.n_pes} PEs"
                )
            numerator = _sum_left_to_right([r["weighted_sum"] for r in records])
            denominator = _sum_left_to_right([r["weight_total"] for r in records])
            if denominator <= 0:
                results.append(float("nan"))
            else:
                results.append(numerator / denominator)
        return results


def build_particle_filter_graph(
    model: CrackGrowthModel,
    observations: Sequence[float],
    n_particles: int,
    n_pes: int,
    seed: int = 11,
    collectives: bool = True,
) -> DistributedParticleFilterSystem:
    """Build the n-PE distributed particle filter of the paper's §5.3.

    ``n_particles`` must be divisible by ``n_pes`` ("particles are
    equally distributed among PEs").

    ``collectives`` routes each S1 partial sum through one broadcast
    connection instead of n-1 point-to-point copies; ``False`` keeps
    the legacy fan-out for A/B comparison.  The S2 -> S3 particle
    exchange stays point-to-point either way: its rates are run-time
    varying and collective connections require static rates.
    """
    if n_pes < 1:
        raise ValueError("n_pes must be >= 1")
    if n_particles < 2 * n_pes:
        raise ValueError("need at least 2 particles per PE")
    if n_particles % n_pes:
        raise ValueError(
            f"{n_particles} particles do not divide over {n_pes} PEs"
        )
    capacity = n_particles // n_pes
    rng = np.random.RandomState(seed)
    initial = model.initial_particles(n_particles, rng)

    graph = DataflowGraph(f"particle_filter_{n_pes}pe")
    collected: List[dict] = []
    assignment: Dict[str, int] = {}
    pe_resources = pf_pe_resources(capacity)

    for pe in range(n_pes):
        estimator = _Estimator(model, seed=seed + 1 + pe)
        updater = _Updater(model, observations, pe, collected)
        partial = _PartialSum(n_pes, pe, collectives=collectives)
        resampler = _LocalResampler(capacity, n_pes, pe)
        assembler = _Assembler(capacity, n_pes, pe)

        # every actor's time is a constant of the PE's capacity (and PE count)
        e_actor = graph.actor(
            f"E_{pe}", kernel=estimator.kernel,
            cycles=capacity * PROPAGATE_CYCLES_PER_PARTICLE + 12,
            params={"resources": pe_resources},
        )
        u_actor = graph.actor(
            f"U_{pe}", kernel=updater.kernel,
            cycles=capacity * LIKELIHOOD_CYCLES_PER_PARTICLE + 12,
        )
        s1_actor = graph.actor(
            f"S1_{pe}", kernel=partial.kernel,
            cycles=capacity * SUM_CYCLES_PER_PARTICLE + 8,
        )
        s2_actor = graph.actor(
            f"S2_{pe}", kernel=resampler.kernel,
            cycles=capacity * RESAMPLE_CYCLES_PER_PARTICLE + n_pes * 8 + 12,
        )
        s3_actor = graph.actor(
            f"S3_{pe}", kernel=assembler.kernel,
            cycles=capacity * ASSEMBLE_CYCLES_PER_PARTICLE + 8,
        )

        e_actor.add_input("particles", rate=capacity, token_bytes=PARTICLE_BYTES)
        e_actor.add_output("predicted", rate=capacity, token_bytes=PARTICLE_BYTES)
        u_actor.add_input("predicted", rate=capacity, token_bytes=PARTICLE_BYTES)
        u_actor.add_output("weighted", rate=capacity, token_bytes=WEIGHTED_BYTES)
        s1_actor.add_input("weighted", rate=capacity, token_bytes=WEIGHTED_BYTES)
        s1_actor.add_output("pass", rate=capacity, token_bytes=WEIGHTED_BYTES)
        s2_actor.add_input("pass", rate=capacity, token_bytes=WEIGHTED_BYTES)
        s2_actor.add_output(
            "kept", rate=DynamicRate(capacity, minimum=0),
            token_bytes=PARTICLE_BYTES,
        )
        s3_actor.add_input(
            "kept", rate=DynamicRate(capacity, minimum=0),
            token_bytes=PARTICLE_BYTES,
        )
        s3_actor.add_output("particles", rate=capacity,
                            token_bytes=PARTICLE_BYTES)

        graph.connect((e_actor, "predicted"), (u_actor, "predicted"))
        graph.connect((u_actor, "weighted"), (s1_actor, "weighted"))
        graph.connect((s1_actor, "pass"), (s2_actor, "pass"))
        graph.connect((s2_actor, "kept"), (s3_actor, "kept"))
        feedback = graph.connect(
            (s3_actor, "particles"), (e_actor, "particles"), delay=capacity
        )
        feedback.set_initial_tokens(
            [float(v) for v in initial[pe * capacity : (pe + 1) * capacity]]
        )

        for name in ("E", "U", "S1", "S2", "S3"):
            assignment[f"{name}_{pe}"] = pe

    # Cross-PE exchanges: weight sums (static) and particles (dynamic).
    if collectives and n_pes > 1:
        # One broadcast connection per S1: one `wsum` output port fanned
        # out to every other PE's resampler (shared-payload transfers).
        for src in range(n_pes):
            graph.get_actor(f"S1_{src}").add_output(
                "wsum", rate=1, token_bytes=WSUM_BYTES
            )
            for dst in range(n_pes):
                if dst != src:
                    graph.get_actor(f"S2_{dst}").add_input(
                        f"wsum_from_{src}", rate=1, token_bytes=WSUM_BYTES
                    )
            graph.add_broadcast(
                f"S1_{src}.wsum",
                [
                    f"S2_{dst}.wsum_from_{src}"
                    for dst in range(n_pes)
                    if dst != src
                ],
                name=f"wsum_{src}",
            )
    for src in range(n_pes):
        for dst in range(n_pes):
            if src == dst:
                continue
            if not (collectives and n_pes > 1):
                s1_src = graph.get_actor(f"S1_{src}")
                s2_dst = graph.get_actor(f"S2_{dst}")
                s1_src.add_output(
                    f"wsum_to_{dst}", rate=1, token_bytes=WSUM_BYTES
                )
                s2_dst.add_input(
                    f"wsum_from_{src}", rate=1, token_bytes=WSUM_BYTES
                )
                graph.connect(
                    (s1_src, f"wsum_to_{dst}"), (s2_dst, f"wsum_from_{src}"),
                    name=f"wsum_{src}_to_{dst}",
                )

            s2_src = graph.get_actor(f"S2_{src}")
            s3_dst = graph.get_actor(f"S3_{dst}")
            s2_src.add_output(
                f"export_to_{dst}",
                rate=DynamicRate(capacity, minimum=0),
                token_bytes=PARTICLE_BYTES,
            )
            s3_dst.add_input(
                f"import_from_{src}",
                rate=DynamicRate(capacity, minimum=0),
                token_bytes=PARTICLE_BYTES,
            )
            graph.connect(
                (s2_src, f"export_to_{dst}"), (s3_dst, f"import_from_{src}"),
                name=f"particles_{src}_to_{dst}",
            )

    graph.validate()
    partition = Partition.manual(graph, assignment) if n_pes > 1 else (
        Partition.single_processor(graph)
    )
    return DistributedParticleFilterSystem(
        graph=graph,
        partition=partition,
        n_pes=n_pes,
        n_particles=n_particles,
        model=model,
        observations=list(observations),
        collected=collected,
    )
