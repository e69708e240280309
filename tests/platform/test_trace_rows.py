"""The row-based trace recorder answers exactly as the event list did.

:class:`~repro.platform.trace.TraceRecorder` stores plain
``(pe, task, start, end, iteration)`` rows and builds
:class:`~repro.platform.trace.TraceEvent` objects only when a query
returns them.  :class:`EventListRecorder` below is the former recorder,
which built one ``TraceEvent`` per ``record`` call; every query must
give the same result on both, for random recordings and for a traced
SPI run of the two-PE particle filter.
"""

from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.particle_filter import (
    CrackGrowthModel,
    build_particle_filter_graph,
    simulate_crack_history,
)
from repro.platform.trace import PEExclusivityError, TraceEvent, TraceRecorder
from repro.spi import SpiSystem


class EventListRecorder:
    """The recorder as it was: one ``TraceEvent`` per recorded interval."""

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []

    def record(self, pe, task, start, end, iteration) -> None:
        self._events.append(TraceEvent(pe, task, start, end, iteration))

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def events_on(self, pe):
        return [e for e in self._events if e.pe == pe]

    def events_of(self, task):
        return [e for e in self._events if e.task == task]

    def makespan(self):
        return max((e.end for e in self._events), default=0)

    def task_statistics(self):
        stats: Dict[str, Dict[str, float]] = {}
        for event in self._events:
            entry = stats.setdefault(
                event.task, {"count": 0, "total": 0, "mean": 0.0}
            )
            entry["count"] += 1
            entry["total"] += event.end - event.start
        for entry in stats.values():
            entry["mean"] = entry["total"] / entry["count"]
        return stats

    def validate_pe_exclusivity(self):
        for pe in {e.pe for e in self._events}:
            intervals = sorted(
                ((e.start, e.end, e.task) for e in self.events_on(pe))
            )
            for (s1, e1, t1), (s2, e2, t2) in zip(intervals, intervals[1:]):
                if s2 < e1:
                    raise PEExclusivityError(
                        f"PE{pe}: {t1!r} [{s1},{e1}) overlaps {t2!r} "
                        f"[{s2},{e2})"
                    )

    def to_csv(self):
        lines = ["pe,task,iteration,start,end,duration"]
        for event in sorted(self._events, key=lambda e: (e.start, e.pe)):
            lines.append(
                f"{event.pe},{event.task},{event.iteration},"
                f"{event.start},{event.end},{event.end - event.start}"
            )
        return "\n".join(lines)

    def gantt(self, width: int = 72, upto: Optional[int] = None) -> str:
        horizon = upto if upto is not None else self.makespan()
        if horizon <= 0:
            return "(empty trace)"
        scale = horizon / width
        letters: Dict[str, str] = {}

        def letter_for(task):
            if task not in letters:
                alphabet = "abcdefghijklmnopqrstuvwxyz"
                letters[task] = alphabet[len(letters) % len(alphabet)]
            return letters[task]

        pe_indices = sorted({e.pe for e in self._events})
        label_width = max(len(f"PE{pe}") for pe in pe_indices)
        rows = []
        for pe in pe_indices:
            cells = ["."] * width
            for event in self.events_on(pe):
                if event.start >= horizon:
                    continue
                first = min(int(event.start / scale), width - 1)
                last = max(first, int(min(event.end, horizon) / scale) - 1)
                for cell in range(first, min(last + 1, width)):
                    cells[cell] = letter_for(event.task)
            rows.append(f"{f'PE{pe}'.ljust(label_width)} |" + "".join(cells) + "|")
        legend = ", ".join(
            f"{symbol}={task}" for task, symbol in letters.items()
        )
        end_label = f"{horizon} cycles"
        pad = max(1, width - 1 - len(end_label))
        header = " " * (label_width + 2) + "0" + " " * pad + end_label
        return "\n".join([header] + rows + [legend])


def outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:  # the error itself is the compared outcome
        return ("raises", type(exc), str(exc))


def assert_same_answers(rows, width=72, upto=None):
    new, old = TraceRecorder(), EventListRecorder()
    for row in rows:
        new.record(*row)
        old.record(*row)
    assert len(new) == len(old)
    assert new.rows == tuple(rows)
    assert new.events == old.events
    tasks = {row[1] for row in rows} | {"absent"}
    for task in tasks:
        assert new.events_of(task) == old.events_of(task)
    assert new.makespan() == old.makespan()
    assert new.task_statistics() == old.task_statistics()
    assert new.to_csv() == old.to_csv()
    assert outcome(lambda: new.gantt(width, upto)) == outcome(
        lambda: old.gantt(width, upto)
    )
    assert outcome(new.validate_pe_exclusivity) == outcome(
        old.validate_pe_exclusivity
    )


row_strategy = st.tuples(
    st.integers(0, 3),
    st.sampled_from(["fire:A", "fire:B", "send:e0", "recv:e0"]),
    st.integers(0, 200),
    st.integers(0, 40),
    st.integers(0, 5),
).map(lambda r: (r[0], r[1], r[2], r[2] + r[3], r[4]))


@given(
    rows=st.lists(row_strategy, max_size=40),
    width=st.integers(1, 80),
    upto=st.one_of(st.none(), st.integers(-5, 300)),
)
@settings(max_examples=200, deadline=None)
def test_random_recordings_answer_as_before(rows, width, upto):
    assert_same_answers(rows, width, upto)


@pytest.fixture(scope="module")
def pf_run():
    model = CrackGrowthModel()
    _, observations = simulate_crack_history(model, steps=12, seed=3)
    system = build_particle_filter_graph(
        model, observations, n_particles=24, n_pes=2, seed=5
    )
    return SpiSystem.compile(system.graph, system.partition).run(
        iterations=12, trace=True, metrics=True, steady_state="off"
    )


def test_traced_spi_run_answers_as_before(pf_run):
    rows = pf_run.trace.rows
    assert len(rows) > 100
    assert_same_answers(list(rows), width=72, upto=min(pf_run.cycles, 4000))


def test_inverted_interval_raises_at_record_and_is_not_kept():
    trace = TraceRecorder()
    trace.record(0, "a", 0, 10, 0)
    with pytest.raises(ValueError) as info:
        trace.record(1, "b", 7, 6, 3)
    assert str(info.value) == "event for 'b' ends (6) before it starts (7)"
    # the text is the one TraceEvent gives for the same interval
    with pytest.raises(ValueError) as event_info:
        TraceEvent(1, "b", 7, 6, 3)
    assert str(info.value) == str(event_info.value)
    assert trace.rows == ((0, "a", 0, 10, 0),)
    assert len(trace) == 1


def test_rows_is_a_snapshot():
    trace = TraceRecorder()
    trace.record(0, "a", 0, 10, 0)
    snapshot = trace.rows
    trace.record(0, "a", 10, 20, 1)
    assert snapshot == ((0, "a", 0, 10, 0),)
    assert len(trace.rows) == 2
