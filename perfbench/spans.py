"""In-memory spans recorded around calls into the program's public API.

The benchmark never edits the program.  For a traced round it replaces
public functions and methods (``Workbench.compile``,
``TrialScheduler.run_trial``, ``classify``, ``ServiceClient.submit``, ...)
with timing wrappers, and puts the originals back afterwards.  Spans stay
in memory and are written out as NDJSON when the run ends.

A span's self time is its duration minus the time its direct children
took.  Children nest strictly inside their parent on the same thread, so
that difference is exactly the uncovered part of the parent's interval.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional

#: Spans the benchmark opens around its own operations.  They give the
#: layer spans a parent but are not a layer of the program, so they count
#: as uncovered time.
BENCH_PREFIX = "bench."


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    #: index of the parent span in :attr:`SpanRecorder.spans`
    parent: Optional[int] = None
    thread: int = 0
    #: summed duration of the direct children
    child_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class SpanRecorder:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, time.perf_counter(), parent=parent,
                    thread=threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                self.spans[parent].child_s += span.seconds

    def _timed(self, fn, name: str):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return timed

    @contextmanager
    def wrapping(self, targets: Iterable[tuple[object, str, str]]) -> Iterator[None]:
        """Replace each ``(owner, attribute, span name)`` with a timing
        wrapper for the duration of the block."""
        originals = []
        try:
            for owner, attribute, name in targets:
                original = getattr(owner, attribute)
                originals.append((owner, attribute, original))
                setattr(owner, attribute, self._timed(original, name))
            yield
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    # -- summaries ------------------------------------------------------------
    def between(self, start: float, end: float) -> list[Span]:
        """Spans that started inside ``[start, end)``."""
        return [s for s in self.spans if start <= s.start < end]

    def self_seconds(self, spans: Iterable[Span]) -> dict[str, float]:
        """Self time per span name."""
        totals: dict[str, float] = {}
        for span in spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.self_s
        return totals

    def covered_seconds(self, spans: Iterable[Span]) -> float:
        """Time covered by layer spans: the summed duration of every
        layer span that has no layer span above it."""
        total = 0.0
        for span in spans:
            if span.name.startswith(BENCH_PREFIX):
                continue
            parent = span.parent
            while parent is not None and self.spans[parent].name.startswith(
                BENCH_PREFIX
            ):
                parent = self.spans[parent].parent
            if parent is None:
                total += span.seconds
        return total

    def write_ndjson(self, path: Path, extra: Iterable[dict] = ()) -> None:
        """Write every span (times in ms from the first span), then
        ``extra`` records, one JSON object per line."""
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "parent": span.parent,
                    "name": span.name,
                    "thread": span.thread,
                    "start_ms": round((span.start - origin) * 1e3, 4),
                    "end_ms": round((span.end - origin) * 1e3, 4),
                    "self_ms": round(span.self_s * 1e3, 4),
                }
                out.write(json.dumps(record) + "\n")
            for record in extra:
                out.write(json.dumps(record, sort_keys=True) + "\n")
