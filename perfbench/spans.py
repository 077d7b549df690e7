"""Span recorder: wall time, self time and exact Spark job counts per span.

Every span runs under its own Spark job group, so the jobs a span submitted
itself are read back from the status tracker when it ends; the parent's
group is restored on exit. Inclusive counts (``jobs``, ``wall_s``) add the
children's; ``self_s`` is the wall time minus the child spans.

Work done only for the trace (row counts, byte counts) runs inside
:meth:`Tracer.aux`: under a separate job group and on a paused clock, so it
adds nothing to any span's ``jobs`` or ``wall_s``.

Spans are kept in memory and written out once, when the run ends.
"""
from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

AUX_GROUP = "perfbench-aux"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: str | None
    start: float
    end: float = 0.0
    jobs: int = 0  # inclusive
    child_s: float = 0.0
    # Counts of descendant spans by name, plus named events ("feasible").
    below: Counter = field(default_factory=Counter)
    attrs: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.wall_s - self.child_s

    def record(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent,
            "request": self.request, "start": round(self.start, 6),
            "end": round(self.end, 6), "jobs": self.jobs,
            "self_s": round(self.self_s, 6), **self.attrs,
        }


class Tracer:
    """Records spans for one benchmark process (one Spark context)."""

    def __init__(self, sc):
        self._sc = sc
        self._tracker = sc.statusTracker()
        self._stack: list[Span] = []
        self._aux_s = 0.0
        self._next_id = 0
        self.spans: list[Span] = []
        self.recording = True
        self.request: str | None = None

    def clock(self) -> float:
        """Wall clock with all trace-only work taken out."""
        return time.perf_counter() - self._aux_s

    def _group(self, group: str | None) -> None:
        self._sc.setLocalProperty("spark.jobGroup.id", group)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(self._next_id, name, parent.id if parent else None,
                  self.request, self.clock())
        self._next_id += 1
        group = f"perfbench-{sp.id}"
        self._stack.append(sp)
        self._group(group)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()
            self._group(f"perfbench-{parent.id}" if parent else None)
            sp.jobs += len(self._tracker.getJobIdsForGroup(group))
            if parent is not None:
                parent.jobs += sp.jobs
                parent.child_s += sp.wall_s
                parent.below[sp.name] += 1
                parent.below.update(sp.below)
            if self.recording:
                self.spans.append(sp)

    def credit(self, key: str, n: int) -> None:
        """Add ``n`` to the innermost open span's ``below[key]``."""
        if self._stack:
            self._stack[-1].below[key] += n

    @contextmanager
    def aux(self):
        """Trace-only work: own job group, excluded from every span's time."""
        t0 = time.perf_counter()
        cur = self._stack[-1] if self._stack else None
        self._group(AUX_GROUP)
        try:
            yield
        finally:
            self._group(f"perfbench-{cur.id}" if cur else None)
            self._aux_s += time.perf_counter() - t0
