"""Application 2: particle filter for crack-length prognosis (paper §5.3)."""

from repro.apps.particle_filter.model import (
    CrackGrowthModel,
    simulate_crack_history,
)
from repro.apps.particle_filter.pf import FilterTrace, ParticleFilter
from repro.apps.particle_filter.pipeline import (
    DistributedParticleFilterSystem,
    build_particle_filter_graph,
    pf_pe_resources,
    resample_offset,
)
from repro.apps.particle_filter.resampling import (
    allocate_targets,
    multiplicities,
    plan_exchanges,
    systematic_resample,
)

__all__ = [
    "CrackGrowthModel", "simulate_crack_history",
    "FilterTrace", "ParticleFilter",
    "DistributedParticleFilterSystem", "build_particle_filter_graph",
    "pf_pe_resources", "resample_offset",
    "allocate_targets", "multiplicities", "plan_exchanges", "systematic_resample",
]
