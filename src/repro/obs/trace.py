"""Span-based tracing for the campaign service.

A :class:`Tracer` collects :class:`Span` records — named, parented,
timed intervals with attributes and point events — covering the job →
shard-lease → attack → trial-batch → checkpoint-fork lifecycle.  Spans
are assembled two ways:

* **inline**, via ``with tracer.span("compile", scheme="ancode"):`` —
  nesting is tracked with a :mod:`contextvars` stack, so spans opened in
  the same (coroutine/thread) context parent automatically;
* **from the event stream**, via :class:`JobTraceRecorder` — the
  scheduler already publishes a deterministic per-job event sequence
  (``attack-started``, ``batch``, ``shard-stolen``, ...); the recorder
  folds that stream into spans at the times the events were emitted
  (each emitter stamps its event, since the thread that folds it may
  only get the interpreter lock much later).  Nothing on the
  engine's fast path is touched: tracing consumes events that exist
  anyway.

Span ids are small sequential integers (deterministic given the event
order); timestamps are milliseconds relative to the trace epoch, so a
trace is self-contained and diffs cleanly.  Wall-clock durations live
*only* in traces and metrics — never in campaign reports, which stay
byte-identical with tracing on (the CI-gated invariant).

Export is NDJSON (one span per line, :meth:`Tracer.to_ndjson`) and the
service persists finished traces into the result store (schema v3), so
``GET /jobs/<id>/trace`` works across restarts.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

_current_span: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


class Span:
    """One named, timed interval in a trace."""

    __slots__ = ("span_id", "parent_id", "name", "start_ms", "end_ms", "attrs", "events")

    def __init__(
        self,
        span_id: int,
        name: str,
        parent_id: Optional[int],
        start_ms: float,
        attrs: dict[str, Any],
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self.attrs = attrs
        self.events: list[dict[str, Any]] = []

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "attrs": dict(self.attrs),
            "events": list(self.events),
        }


class Tracer:
    """Collects spans; thread-safe; deterministic ids.

    ``clock`` returns seconds (monotonic); the default anchors
    ``time.perf_counter`` at construction so every timestamp is relative
    to the trace epoch.  Tests inject a fake clock for exact output.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        if clock is None:
            epoch = time.perf_counter()
            clock = lambda: time.perf_counter() - epoch  # noqa: E731
        self._clock = clock
        self._lock = threading.Lock()
        self._next_id = 1
        self.spans: list[Span] = []

    def now_ms(self) -> float:
        """The trace clock, in milliseconds since the epoch.  A thread
        that hands an event to another for recording stamps it here, and
        passes the stamp on as ``at_ms``."""
        return round(self._clock() * 1e3, 3)

    # -- manual span management (cross-thread safe) -------------------------
    def start_span(
        self,
        name: str,
        parent: Optional[Span] = None,
        at_ms: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span with an explicit parent (``None`` = root-level).
        Use this across threads, where the contextvar stack of
        :meth:`span` does not follow.  ``at_ms`` (default: now) backdates
        the start to when the event actually happened."""
        with self._lock:
            span = Span(
                self._next_id,
                name,
                parent.span_id if parent is not None else None,
                self.now_ms() if at_ms is None else at_ms,
                attrs,
            )
            self._next_id += 1
            self.spans.append(span)
        return span

    def end(self, span: Span, at_ms: Optional[float] = None, **attrs: Any) -> None:
        with self._lock:
            span.attrs.update(attrs)
            if span.end_ms is None:
                span.end_ms = self.now_ms() if at_ms is None else at_ms

    def add_event(
        self, span: Span, name: str, at_ms: Optional[float] = None, **attrs: Any
    ) -> None:
        with self._lock:
            span.events.append(
                {
                    "name": name,
                    "at_ms": self.now_ms() if at_ms is None else at_ms,
                    "attrs": attrs,
                }
            )

    # -- inline nesting -----------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """``with tracer.span("compile"):`` — nests under the innermost
        open span of the current context."""
        parent = _current_span.get()
        span = self.start_span(name, parent=parent, **attrs)
        token = _current_span.set(span)
        try:
            yield span
        except BaseException as exc:
            self.end(span, error=f"{type(exc).__name__}: {exc}")
            raise
        finally:
            _current_span.reset(token)
            self.end(span)

    # -- export -------------------------------------------------------------
    def export(self) -> list[dict[str, Any]]:
        with self._lock:
            return [span.to_dict() for span in self.spans]

    def to_ndjson(self) -> str:
        return "".join(
            json.dumps(span, sort_keys=True) + "\n" for span in self.export()
        )

    @staticmethod
    def from_ndjson(text: str) -> list[dict[str, Any]]:
        return [json.loads(line) for line in text.splitlines() if line.strip()]


#: Heavy result fields stripped before a span stores an attack tally.
_BULKY_RESULT_FIELDS = ("records", "outcomes", "wrong_codes", "transients")


class JobTraceRecorder:
    """Folds one job's scheduler event stream into a span tree.

    The scheduler feeds every published event (``on_event``) from its
    commit thread, one at a time, so no locking subtleties arise beyond
    the tracer's own; each event carries the stamp its emitter took.  The
    resulting tree::

        job <id>
        ├── compile            (a runner thread compiling for a local shard)
        ├── attack[0] <label>  (attack-started → attack-finished)
        │     • batch ...      (point events, one per merged trial batch)
        │     • shard-stolen / shard-retried / shard-resumed
        └── attack[1] ...

    Lifecycle events (queued/started/finished/failed/cancelled) land on
    the job root span, which closes at :meth:`finish`.
    """

    def __init__(self, job_id: str, tracer: Optional[Tracer] = None):
        self.job_id = job_id
        self.tracer = tracer if tracer is not None else Tracer()
        self.root = self.tracer.start_span("job", job_id=job_id)
        self._attacks: dict[int, Span] = {}
        self._finished = False

    # -- explicit runner-thread spans ---------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """A child of the job root with an explicit parent link — safe
        from runner threads, where the contextvar stack does not follow."""
        span = self.tracer.start_span(name, parent=self.root, **attrs)
        try:
            yield span
        finally:
            self.tracer.end(span)

    # -- event-stream folding -----------------------------------------------
    def on_event(self, payload: dict[str, Any], at_ms: Optional[float] = None) -> None:
        """Fold one event; ``at_ms`` is its emission stamp
        (:meth:`Tracer.now_ms`), defaulting to now."""
        kind = payload.get("event")
        if kind == "attack-started":
            index = int(payload.get("index", 0))
            # A re-lease after a steal re-enters here: keep one span per
            # attack, note the extra attempt as an event.
            span = self._attacks.get(index)
            if span is None:
                self._attacks[index] = self.tracer.start_span(
                    "attack",
                    parent=self.root,
                    at_ms=at_ms,
                    index=index,
                    attack=payload.get("attack"),
                    suite=payload.get("suite"),
                )
            else:
                self.tracer.add_event(
                    span,
                    "re-leased",
                    at_ms=at_ms,
                    worker=payload.get("worker"),
                    attempt=payload.get("attempt"),
                )
            if payload.get("worker") is not None:
                self.tracer.add_event(
                    self._attacks[index],
                    "leased",
                    at_ms=at_ms,
                    worker=payload.get("worker"),
                    attempt=payload.get("attempt"),
                )
        elif kind == "attack-finished":
            index = int(payload.get("index", 0))
            span = self._attacks.get(index)
            if span is None:  # resumed shard: finished without a start
                span = self._attacks[index] = self.tracer.start_span(
                    "attack",
                    parent=self.root,
                    at_ms=at_ms,
                    index=index,
                    attack=payload.get("attack"),
                )
            result = dict(payload.get("result") or {})
            tally = {
                key: value
                for key, value in result.items()
                if key not in _BULKY_RESULT_FIELDS
            }
            self.tracer.end(span, at_ms=at_ms, worker=payload.get("worker"), **tally)
        elif kind == "batch":
            span = self._attacks.get(self._open_attack_index())
            if span is not None:
                self.tracer.add_event(
                    span,
                    "batch",
                    at_ms=at_ms,
                    batches_done=payload.get("batches_done"),
                    trials_done=payload.get("trials_done"),
                    trial_count=payload.get("trial_count"),
                )
        elif kind in ("shard-stolen", "shard-retried", "shard-resumed"):
            index = payload.get("index")
            span = self._attacks.get(index) if index is not None else None
            self.tracer.add_event(
                span if span is not None else self.root,
                kind,
                at_ms=at_ms,
                worker=payload.get("worker"),
                attempts=payload.get("attempts"),
                error=payload.get("error"),
            )
        elif kind in ("queued", "started"):
            self.tracer.add_event(self.root, kind, at_ms=at_ms)
        elif kind in ("finished", "failed", "cancelled"):
            self.finish(kind, error=payload.get("error"), at_ms=at_ms)

    def _open_attack_index(self) -> int:
        for index in sorted(self._attacks, reverse=True):
            if self._attacks[index].end_ms is None:
                return index
        return -1

    def finish(
        self, state: str, error: Optional[str] = None, at_ms: Optional[float] = None
    ) -> None:
        if self._finished:
            return
        self._finished = True
        for span in self._attacks.values():
            if span.end_ms is None:
                self.tracer.end(span, at_ms=at_ms, interrupted=True)
        attrs: dict[str, Any] = {"state": state}
        if error:
            attrs["error"] = error
        self.tracer.end(self.root, at_ms=at_ms, **attrs)

    def export(self) -> list[dict[str, Any]]:
        return self.tracer.export()
