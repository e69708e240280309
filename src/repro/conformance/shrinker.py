"""Greedy spec shrinking for failing conformance cases.

When an oracle fires, the raw counterexample is usually bigger than it
needs to be.  The shrinker performs classic delta-debugging on the
*spec* (never on live graph objects): it proposes structurally smaller
variants — drop an actor with its incident edges, drop an edge, collapse
rates / repetitions / delays / cycles to their minimum, drop PEs, turn a
dynamic edge static — and keeps any variant on which the original
failure still reproduces, iterating to a fixpoint.

Because specs derive concrete rates from the repetitions vector, every
candidate is SDF-consistent by construction; candidates that are invalid
for other reasons (e.g. a dangling feedback delay that now deadlocks the
*reference*) simply fail the "same oracle still fires" predicate and are
discarded.

The campaign report carries the final minimal spec as JSON, and
:func:`render_pytest_repro` turns it into a ready-to-commit pytest
regression test (see ``TESTING.md``).
"""

from __future__ import annotations

import json
import textwrap
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

from repro.conformance.oracles import run_oracle_stack
from repro.conformance.spec import GraphSpec, SpecError, build_case

__all__ = [
    "ShrinkResult",
    "shrink",
    "oracle_failure_predicate",
    "render_pytest_repro",
]

@dataclass
class ShrinkResult:
    """Outcome of a shrink run."""

    spec: GraphSpec
    steps: int
    attempts: int


def _drop_actor(spec: GraphSpec, name: str) -> GraphSpec:
    return replace(
        spec,
        actors=tuple(a for a in spec.actors if a.name != name),
        edges=tuple(
            e for e in spec.edges if name not in (e.src, e.snk)
        ),
        assignment=tuple(
            (actor, pe) for actor, pe in spec.assignment if actor != name
        ),
    )


def _candidates(spec: GraphSpec) -> Iterator[GraphSpec]:
    """Yield strictly simpler variants, most aggressive first."""
    if len(spec.actors) > 1:
        for actor in spec.actors:
            yield _drop_actor(spec, actor.name)
    for index in range(len(spec.edges)):
        yield replace(
            spec, edges=spec.edges[:index] + spec.edges[index + 1:]
        )
    if spec.batch > 1:
        yield replace(spec, batch=1)
    if spec.accelerators:
        yield replace(spec, accelerators=())
    if spec.n_pes > 1:
        yield replace(
            spec,
            n_pes=spec.n_pes - 1,
            assignment=tuple(
                (name, min(pe, spec.n_pes - 2))
                for name, pe in spec.assignment
            ),
            accelerators=tuple(
                sorted({min(pe, spec.n_pes - 2) for pe in spec.accelerators})
            ),
        )
    for index, actor in enumerate(spec.actors):
        if actor.repetitions > 1:
            actors = list(spec.actors)
            actors[index] = replace(actor, repetitions=1)
            yield replace(spec, actors=tuple(actors))
        if actor.cycles > 1:
            actors = list(spec.actors)
            actors[index] = replace(actor, cycles=1)
            yield replace(spec, actors=tuple(actors))
    for index, edge in enumerate(spec.edges):
        if edge.dynamic:
            edges = list(spec.edges)
            edges[index] = replace(
                edge,
                dynamic=False,
                rate_factor=1,
                dyn_bound=1,
                dyn_min=1,
                rate_sequence=(),
            )
            yield replace(spec, edges=tuple(edges))
            if len(edge.rate_sequence) > 1:
                edges = list(spec.edges)
                edges[index] = replace(
                    edge, rate_sequence=edge.rate_sequence[:1]
                )
                yield replace(spec, edges=tuple(edges))
            continue
        if edge.rate_factor > 1:
            edges = list(spec.edges)
            edges[index] = replace(edge, rate_factor=1)
            yield replace(spec, edges=tuple(edges))
        if edge.delay_tokens > 0:
            edges = list(spec.edges)
            edges[index] = replace(edge, delay_tokens=0)
            yield replace(spec, edges=tuple(edges))


def oracle_failure_predicate(
    oracle: str,
    iterations: int = 4,
    quick: bool = False,
    occupancy_bound_fn: Optional[Callable] = None,
    max_cycles: Optional[int] = None,
) -> Callable[[GraphSpec], bool]:
    """Predicate: does ``oracle`` still fire on a (candidate) spec?"""

    def still_failing(spec: GraphSpec) -> bool:
        try:
            case = build_case(spec)
        except SpecError:
            return False
        kwargs = dict(
            iterations=iterations,
            quick=quick,
            occupancy_bound_fn=occupancy_bound_fn,
        )
        if max_cycles is not None:
            kwargs["max_cycles"] = max_cycles
        report = run_oracle_stack(case, **kwargs)
        return any(v.oracle == oracle for v in report.violations)

    return still_failing


def shrink(
    spec: GraphSpec,
    still_failing: Callable[[GraphSpec], bool],
    max_attempts: int = 500,
) -> ShrinkResult:
    """Greedily minimise ``spec`` while ``still_failing`` holds.

    ``still_failing(spec)`` must be True for the input spec; the result
    is a local minimum: no single candidate step still fails.
    """
    current = spec
    steps = 0
    attempts = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for candidate in _candidates(current):
            attempts += 1
            if attempts > max_attempts:
                break
            try:
                failed = still_failing(candidate)
            except Exception:
                failed = False
            if failed:
                current = candidate
                steps += 1
                progress = True
                break
    return ShrinkResult(spec=current, steps=steps, attempts=attempts)


# -- artefact emission ----------------------------------------------------


def render_pytest_repro(spec: GraphSpec, oracle: str) -> str:
    """Render a standalone pytest regression test for a shrunk spec.

    The emitted module rebuilds the exact spec from JSON and asserts the
    oracle stack is clean — committing it turns the counterexample into
    a permanent regression guard (workflow described in TESTING.md).
    """
    spec_json = json.dumps(spec.to_json(), indent=4, sort_keys=True)
    body = f'''\
"""Regression test generated by the conformance shrinker.

Original failure: oracle {oracle!r} on seed {spec.seed}.
"""

import json

from repro.conformance import GraphSpec, build_case, run_oracle_stack

SPEC_JSON = json.loads(r\'\'\'
{spec_json}
\'\'\')


def test_seed_{spec.seed}_conforms():
    case = build_case(GraphSpec.from_json(SPEC_JSON))
    report = run_oracle_stack(case)
    assert report.ok, [v.detail for v in report.violations]
'''
    return textwrap.dedent(body)
