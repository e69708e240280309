"""Batching A/B oracle: blocking factors never change computed data.

Two tiers of the equivalence contract:

* **gpp no-op** — a requested blocking factor on an all-gpp platform is
  discarded at compile time (batching only amortizes accelerator
  dispatch overhead), so for every seed the run must be *bit-identical*
  to batch=1: token streams, makespan, message counts and occupancy
  high-waters alike.
* **heterogeneous** — with accelerator PEs the blocked schedule
  reorders time, not data: token streams and message counts must still
  match batch=1 exactly (each batched send stays B separate wire
  messages in FIFO order); only timing and occupancy may differ.

Token values depend only on per-edge FIFO order, which a macro-batched
sequencer preserves (a burst fires B logical firings in their original
relative order), so any divergence here is a batching bug, not
nondeterminism.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.conformance import build_case, generate_spec
from repro.spi import SpiSystem

SEED_COUNT = 50
ITERATIONS = 6  # not a batch multiple: exercises the tail macro-pass
REQUESTED_BATCH = 4


def _run(spec, label: str):
    """Fresh case per run: stateful actor kernels must not leak across."""
    case = build_case(spec)
    system = SpiSystem.compile(case.graph, case.partition)
    case.tap.begin(label)
    result = system.run(
        iterations=ITERATIONS,
        max_cycles=10_000_000,
        metrics=True,
    )
    return case.tap.streams(label), result, system.batch


def _bit_identical_view(result) -> dict:
    return {
        "cycles": result.cycles,
        "data_messages": result.data_messages,
        "ack_messages": result.ack_messages,
        "buffer_high_water": dict(result.buffer_high_water),
        "fifo_high_water": dict(result.fifo_high_water),
    }


def test_gpp_batch_request_is_bit_identical():
    """Tier 1: any requested B on an all-gpp platform is a no-op."""
    diverged = []
    for seed in range(SEED_COUNT):
        spec = generate_spec(seed)
        plain_streams, plain, _ = _run(spec, "batch1")
        batched_spec = replace(spec, batch=REQUESTED_BATCH)
        batched_streams, batched, effective = _run(batched_spec, "batchB")
        if effective != 1:
            diverged.append(f"seed {seed}: gpp batch not clamped to 1")
        if batched_streams != plain_streams:
            diverged.append(f"seed {seed}: token streams")
        if _bit_identical_view(batched) != _bit_identical_view(plain):
            diverged.append(f"seed {seed}: run metrics")
    assert not diverged, "; ".join(diverged)


def test_hetero_batch_preserves_streams_and_messages():
    """Tier 2: on accelerator platforms batching keeps data identical."""
    diverged = []
    batched_seeds = 0
    for seed in range(SEED_COUNT):
        spec = generate_spec(seed)
        accelerated = replace(
            spec, accelerators=tuple(range(spec.n_pes))
        )
        plain_streams, plain, _ = _run(accelerated, "batch1")
        batched_spec = replace(accelerated, batch=REQUESTED_BATCH)
        batched_streams, batched, effective = _run(batched_spec, "batchB")
        if effective > 1:
            batched_seeds += 1
        if batched_streams != plain_streams:
            diverged.append(f"seed {seed}: token streams")
        if batched.data_messages != plain.data_messages:
            diverged.append(
                f"seed {seed}: data messages {batched.data_messages} "
                f"!= {plain.data_messages}"
            )
    assert not diverged, "; ".join(diverged)
    # feedback/delay/low-slack seeds clamp to 1; keep a floor so the
    # campaign cannot silently degenerate into unbatched-only pairs
    # (20/50 seeds batch at the current generator defaults)
    assert batched_seeds >= SEED_COUNT // 4, (
        f"only {batched_seeds}/{SEED_COUNT} seeds actually batched"
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=9999),
    batch=st.integers(min_value=2, max_value=5),
    accelerate_all=st.booleans(),
)
def test_batching_equivalence_property(seed, batch, accelerate_all):
    """Property form over arbitrary seeds and blocking factors."""
    spec = generate_spec(seed)
    if accelerate_all:
        spec = replace(spec, accelerators=tuple(range(spec.n_pes)))
    plain_streams, plain, _ = _run(spec, "batch1")
    batched_streams, batched, effective = _run(
        replace(spec, batch=batch), "batchB"
    )
    assert batched_streams == plain_streams
    assert batched.data_messages == plain.data_messages
    if not accelerate_all:
        assert effective == 1
        assert _bit_identical_view(batched) == _bit_identical_view(plain)
