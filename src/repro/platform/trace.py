"""Execution-trace recording and rendering.

A :class:`TraceRecorder` captures every task execution interval during a
simulation ``(pe, task, start, end, iteration)``; the result can be
queried (per-task statistics, concurrency profile) and rendered as an
ASCII Gantt chart or CSV — invaluable when diagnosing why a mapping does
not reach its MCM bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["PEExclusivityError", "TraceEvent", "TraceRecorder", "TraceRow"]

#: one recorded interval: ``(pe, task, start, end, iteration)``
TraceRow = Tuple[int, str, int, int, int]


class PEExclusivityError(RuntimeError):
    """Two task intervals overlapped on one PE — a simulator bug.

    A dedicated exception (not ``AssertionError``) so the check keeps
    firing under ``python -O`` and callers can catch it precisely.
    """


@dataclass(frozen=True)
class TraceEvent:
    """One task execution interval."""

    pe: int
    task: str
    start: int
    end: int
    iteration: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"event for {self.task!r} ends ({self.end}) before it "
                f"starts ({self.start})"
            )


class TraceRecorder:
    """Collects and analyses task execution intervals.

    Each interval is stored as a plain ``(pe, task, start, end,
    iteration)`` row, the cheapest record the simulator can append per
    task completion; :class:`TraceEvent` objects are built only when a
    query returns them.
    """

    def __init__(self) -> None:
        self._rows: List[TraceRow] = []
        #: appends one row unchecked (the sequencer's rows never end
        #: before they start)
        self.add_row = self._rows.append

    def record(
        self, pe: int, task: str, start: int, end: int, iteration: int
    ) -> None:
        if end < start:
            raise ValueError(
                f"event for {task!r} ends ({end}) before it starts ({start})"
            )
        self._rows.append((pe, task, start, end, iteration))

    @property
    def rows(self) -> Tuple[TraceRow, ...]:
        """Every interval as a ``(pe, task, start, end, iteration)``
        tuple, in recording order."""
        return tuple(self._rows)

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        return tuple(TraceEvent(*row) for row in self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    # -- queries ---------------------------------------------------------------

    def events_of(self, task: str) -> List[TraceEvent]:
        return [TraceEvent(*row) for row in self._rows if row[1] == task]

    def makespan(self) -> int:
        return max((row[3] for row in self._rows), default=0)

    def task_statistics(self) -> Dict[str, Dict[str, float]]:
        """Per-task execution count, total and mean duration."""
        stats: Dict[str, Dict[str, float]] = {}
        for _, task, start, end, _ in self._rows:
            entry = stats.setdefault(
                task, {"count": 0, "total": 0, "mean": 0.0}
            )
            entry["count"] += 1
            entry["total"] += end - start
        for entry in stats.values():
            entry["mean"] = entry["total"] / entry["count"]
        return stats

    def validate_pe_exclusivity(self) -> None:
        """Raise :class:`PEExclusivityError` if two intervals overlap on
        one PE (a simulator bug)."""
        for pe in {row[0] for row in self._rows}:
            intervals = sorted(
                (start, end, task)
                for row_pe, task, start, end, _ in self._rows
                if row_pe == pe
            )
            for (s1, e1, t1), (s2, e2, t2) in zip(intervals, intervals[1:]):
                if s2 < e1:
                    raise PEExclusivityError(
                        f"PE{pe}: {t1!r} [{s1},{e1}) overlaps {t2!r} "
                        f"[{s2},{e2})"
                    )

    # -- rendering ---------------------------------------------------------------

    def to_csv(self) -> str:
        lines = ["pe,task,iteration,start,end,duration"]
        for pe, task, start, end, iteration in sorted(
            self._rows, key=lambda row: (row[2], row[0])
        ):
            lines.append(f"{pe},{task},{iteration},{start},{end},{end - start}")
        return "\n".join(lines)

    def gantt(self, width: int = 72, upto: Optional[int] = None) -> str:
        """ASCII Gantt chart: one row per PE, time left to right.

        Each task gets a letter (cycling a-z by first appearance); idle
        time renders as ``.``.  ``upto`` clips the horizon.
        """
        horizon = upto if upto is not None else self.makespan()
        if horizon <= 0:
            return "(empty trace)"
        scale = horizon / width
        letters: Dict[str, str] = {}

        def letter_for(task: str) -> str:
            if task not in letters:
                alphabet = "abcdefghijklmnopqrstuvwxyz"
                letters[task] = alphabet[len(letters) % len(alphabet)]
            return letters[task]

        pe_indices = sorted({row[0] for row in self._rows})
        label_width = max(len(f"PE{pe}") for pe in pe_indices)
        rows = []
        for pe in pe_indices:
            cells = ["."] * width
            for row_pe, task, start, end, _ in self._rows:
                if row_pe != pe or start >= horizon:
                    continue
                first = min(int(start / scale), width - 1)
                last = max(first, int(min(end, horizon) / scale) - 1)
                for cell in range(first, min(last + 1, width)):
                    cells[cell] = letter_for(task)
            rows.append(f"{f'PE{pe}'.ljust(label_width)} |" + "".join(cells) + "|")
        legend = ", ".join(
            f"{symbol}={task}" for task, symbol in letters.items()
        )
        # Align the time axis with the bars: "0" under the first cell,
        # the horizon right-justified under the last (the old width math
        # broke when the horizon label was wider than the chart).
        end_label = f"{horizon} cycles"
        pad = max(1, width - 1 - len(end_label))
        header = " " * (label_width + 2) + "0" + " " * pad + end_label
        return "\n".join([header] + rows + [legend])
