"""In-memory spans for the traced run, and the timing proxies that emit them.

A span is ``(id, name, start, end, parent, window)``: perf_counter
seconds, the id of the span that caused it (or ``None``), and the id of
the serving window it belongs to (every span of one window shares it; a
scoring call covers several windows and carries their list).  Spans stay
in memory until :meth:`SpanRecorder.write` at the end of the run.

The proxies wrap public objects the program accepts through its
constructors (``quality_gate=``, ``backend=``), so every layer is timed
from outside, at the boundary where the benchmark hands it work.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from typing import Sequence

__all__ = ["SpanRecorder", "TimedBackend", "TimedQualityGate"]


class SpanRecorder:
    """Append-only span store; safe to record from the scoring thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        #: Context the load generator sets around a submit, read by the SQI proxy
        #: (both run on the event loop, so no lock is needed).
        self.current_parent: int | None = None
        self.current_window: int | None = None

    def new_id(self) -> int:
        return next(self._ids)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        window=None,
        span_id: int | None = None,
    ) -> int:
        if span_id is None:
            span_id = self.new_id()
        self.spans.append((span_id, name, start, end, parent, window))
        return span_id

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def self_times(self, name: str) -> list[float]:
        """Each ``name`` span's duration minus the time its children cover."""
        covered: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [
            (end - start) - covered.get(span_id, 0.0)
            for span_id, n, start, end, _, _ in self.spans
            if n == name
        ]

    def write(self, path: str) -> None:
        """One JSON array per span: id, name, start, end, parent, window."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class TimedQualityGate:
    """Proxy ``SignalQualityIndex``: times each ``assess`` as ``signals.sqi``.

    It also remembers which serving window each assessed window object
    is, so :class:`TimedBackend` can tag scoring spans with window ids.
    """

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.recorder = recorder
        self.window_ids: dict[int, int] = {}

    def assess(self, window):
        start = time.perf_counter()
        report = self.inner.assess(window)
        end = time.perf_counter()
        rec = self.recorder
        rec.record(
            "signals.sqi", start, end, parent=rec.current_parent,
            window=rec.current_window,
        )
        if report.usable:  # gated windows are never scored
            self.window_ids[id(window)] = rec.current_window
        return report


class TimedBackend:
    """Proxy ``ScoringBackend``: times each ``score`` as ``scoring.score``."""

    def __init__(self, inner, recorder: SpanRecorder, gate: TimedQualityGate) -> None:
        self.inner = inner
        self.recorder = recorder
        self.gate = gate
        self.calls = 0
        self.windows = 0

    def start(self) -> None:
        self.inner.start()

    def close(self) -> None:
        self.inner.close()

    def score(self, key: str, windows: Sequence):
        start = time.perf_counter()
        values = self.inner.score(key, windows)
        end = time.perf_counter()
        self.calls += 1
        self.windows += len(windows)
        ids = [self.gate.window_ids.pop(id(w), None) for w in windows]
        self.recorder.record("scoring.score", start, end, window=ids)
        return values
