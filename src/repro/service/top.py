"""``python -m repro.service top`` — a live terminal view of the service.

Polls ``GET /status`` and renders queue depth, runner utilisation, fleet
shard states, and trial throughput, refreshing in place like ``top(1)``.
Throughput is computed client-side from the deltas of the engine
counters the ``/status`` observability block carries between two polls —
the server never keeps rates, only monotonic counters.

:func:`render_top` is pure (status dicts in, string out) so the view is
unit-testable without a terminal or a service; :func:`run_top` owns the
poll-sleep-redraw loop.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Optional

#: ANSI: cursor home + clear-to-end (redraw in place without flicker).
_CLEAR = "\x1b[H\x1b[J"


def _rate(
    current: dict[str, Any],
    previous: Optional[dict[str, Any]],
    field: str,
    interval: Optional[float],
) -> Optional[float]:
    """Per-second delta of one engine counter between two status polls
    (None on the first poll — there is nothing to difference yet)."""
    if previous is None or not interval or interval <= 0:
        return None
    now = ((current.get("observability") or {}).get("engine") or {}).get(field)
    before = ((previous.get("observability") or {}).get("engine") or {}).get(field)
    if now is None or before is None:
        return None
    return max(0.0, (now - before) / interval)


def _fmt_rate(value: Optional[float], unit: str) -> str:
    if value is None:
        return f"--- {unit}"
    if value >= 1_000_000:
        return f"{value / 1_000_000:.1f}M {unit}"
    if value >= 1_000:
        return f"{value / 1_000:.1f}k {unit}"
    return f"{value:.1f} {unit}"


def render_top(
    status: dict[str, Any],
    previous: Optional[dict[str, Any]] = None,
    interval: Optional[float] = None,
) -> str:
    """One frame of the live view, as plain text.

    ``previous`` is the status from the prior poll and ``interval`` the
    seconds between the two; together they turn the monotonic engine
    counters into trials/sec and cycles/sec.
    """
    queue = status.get("queue") or {}
    fleet = status.get("fleet") or {}
    jobs = status.get("jobs") or {}
    cache = status.get("compile_cache") or {}
    engine = (status.get("observability") or {}).get("engine") or {}

    inflight = queue.get("submitted", 0) - (
        queue.get("executed", 0)
        + queue.get("failed", 0)
        + queue.get("cancelled", 0)
    )
    lines = [
        f"repro.service {status.get('version', '?')} — "
        f"{status.get('service', 'repro.service')}",
        "",
        f"jobs      submitted {queue.get('submitted', 0):>6}   "
        f"executed {queue.get('executed', 0):>6}   "
        f"failed {queue.get('failed', 0):>4}   "
        f"cancelled {queue.get('cancelled', 0):>4}   "
        f"in flight {max(0, inflight):>4}",
        f"dedup     inflight {queue.get('deduplicated_inflight', 0):>7}   "
        f"store {queue.get('deduplicated_store', 0):>9}",
        f"store     "
        + (
            "   ".join(
                f"{state} {count}" for state, count in sorted(jobs.items())
            )
            or "(empty)"
        ),
        f"runners   {status.get('runners', '?')} threads × "
        f"{status.get('trial_workers', 0)} trial worker(s)",
        f"compile   hits {cache.get('hits', 0)}   misses {cache.get('misses', 0)}   "
        f"cached {cache.get('programs', 0)}",
        "",
        f"fleet     workers {len(fleet.get('workers') or ()):>3}   "
        f"jobs {fleet.get('jobs', 0):>3}   shards "
        + (
            "  ".join(
                f"{state}={count}"
                for state, count in sorted((fleet.get("shards") or {}).items())
            )
            or "(none)"
        ),
        f"          "
        + "   ".join(
            f"{name} {count}"
            for name, count in sorted((fleet.get("counters") or {}).items())
            if count
        ),
        "",
        f"engine    trials {engine.get('trials', 0):>10}   "
        f"instructions {engine.get('simulated_instructions', 0):>12}   "
        f"cycles {engine.get('simulated_cycles', 0):>12}",
        f"rate      {_fmt_rate(_rate(status, previous, 'trials', interval), 'trials/s'):>16}   "
        f"{_fmt_rate(_rate(status, previous, 'simulated_cycles', interval), 'cycles/s'):>18}",
    ]
    return "\n".join(line.rstrip() for line in lines) + "\n"


def run_top(
    client,
    interval: float = 2.0,
    iterations: Optional[int] = None,
    out=None,
    clear: bool = True,
) -> int:
    """Poll-and-redraw until ^C (or ``iterations`` frames, for tests).

    ``client`` is a :class:`~repro.service.client.ServiceClient`; the
    loop survives transient poll failures the same way the fleet runner
    does — show the error, keep polling.
    """
    from repro.service.client import ServiceError

    out = out if out is not None else sys.stdout
    previous: Optional[dict[str, Any]] = None
    elapsed: Optional[float] = None
    frames = 0
    try:
        while iterations is None or frames < iterations:
            polled_at = time.perf_counter()
            try:
                status = client.service_status()
            except ServiceError as exc:
                out.write(f"(service unreachable: {exc})\n")
                out.flush()
                frames += 1
                if iterations is None or frames < iterations:
                    time.sleep(interval)
                continue
            frame = render_top(status, previous=previous, interval=elapsed)
            out.write((_CLEAR if clear else "") + frame)
            out.flush()
            previous = status
            frames += 1
            if iterations is None or frames < iterations:
                time.sleep(interval)
                elapsed = time.perf_counter() - polled_at
    except KeyboardInterrupt:
        pass
    return 0
