"""The particle filter on block FIFOs matches a per-token execution.

The SPI run moves whole ndarray blocks through FIFOs, messages and
packed tokens; the reference below moves one Python object per token
through plain deques, in PASS order on one conceptual PE.  Both start
from freshly built graphs with the same seeds, so every partial
estimate must agree exactly.  Nothing here depends on a numpy version:
the two sides are compared with each other, not with a stored digest.
"""

from collections import deque

import pytest

from repro.apps.particle_filter import build_particle_filter_graph
from repro.dataflow.sdf import build_pass
from repro.dataflow.vts import vts_convert
from repro.spi import SpiSystem

ITERATIONS = 12
SEED = 5


def per_token_run(graph, iterations):
    """Fire ``graph``'s PASS ``iterations`` times over per-token deques."""
    conversion = vts_convert(graph)
    converted = conversion.graph
    schedule = build_pass(converted, conversion.repetitions)
    fifos = {
        edge.edge_id: deque(
            edge.initial_tokens
            if edge.initial_tokens is not None
            else [None] * edge.delay
        )
        for edge in converted.edges
    }
    firings = {actor.name: 0 for actor in converted.actors}
    for _ in range(iterations):
        for actor in schedule:
            consumed = {}
            for edge in converted.in_edges(actor):
                fifo = fifos[edge.edge_id]
                consumed[edge.sink.name] = [
                    fifo.popleft() for _ in range(edge.cons_rate)
                ]
            produced = actor.fire(firings[actor.name], consumed)
            firings[actor.name] += 1
            for edge in converted.out_edges(actor):
                fifos[edge.edge_id].extend(produced[edge.source.name])


def by_iteration_and_pe(records):
    return sorted(records, key=lambda r: (r["iteration"], r["pe"]))


@pytest.mark.parametrize("n_pes", [1, 2])
def test_block_run_equals_per_token_run(crack_setup, n_pes):
    model, _, observations = crack_setup
    observations = list(observations) * 2

    def build():
        return build_particle_filter_graph(
            model, observations, n_particles=24, n_pes=n_pes, seed=SEED
        )

    blocks = build()
    SpiSystem.compile(blocks.graph, blocks.partition).run(
        iterations=ITERATIONS, steady_state="off"
    )
    tokens = build()
    per_token_run(tokens.graph, ITERATIONS)

    assert len(blocks.collected) == ITERATIONS * n_pes
    assert by_iteration_and_pe(blocks.collected) == by_iteration_and_pe(
        tokens.collected
    )
    assert blocks.estimates() == tokens.estimates()
