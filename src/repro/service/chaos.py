"""Deterministic fault injection for the campaign service itself.

:mod:`repro.faults` attacks the *device under test*; this module turns
the same adversarial mindset on our own serving infrastructure.  Every
injector runs off a seeded schedule so a chaos test is an ordinary
deterministic test — same seed, same faults, same (correct) outcome:

* :class:`WorkerChaos` — kills a :class:`~repro.service.fleet.FleetRunner`
  mid-shard: at scheduled lease ordinals the runner goes silent while
  still holding its lease, exactly what a SIGKILLed worker box looks
  like from the coordinator (no heartbeat, no result, lease expires,
  shard is stolen).
* :class:`ChaosProxy` — a TCP proxy between client/runner and service
  that drops, delays, or duplicates HTTP exchanges.  A *dropped*
  response is the nasty case: the request **was** executed server-side,
  only the acknowledgement is lost — which is why every mutating call in
  the fleet protocol must be idempotent.
* :class:`CrashingStore` — a :class:`~repro.service.store.ResultStore`
  that dies (raises :class:`SimulatedCrash`) after a scheduled number of
  committed writes, simulating a coordinator killed between WAL commits;
  reopening the same database file must resume from the shards that made
  it to disk.

None of this is imported by the service's production paths — the test
suite and the chaos CI job wire the injectors in explicitly.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.service.store import ResultStore

#: Every decision a :class:`ChaosSchedule` can draw (the label space of
#: ``repro_chaos_decisions_total``).
CHAOS_ACTIONS = ("pass", "drop", "delay", "duplicate")


class SimulatedCrash(RuntimeError):
    """The chaos harness killed a component on schedule (not a bug)."""


# ---------------------------------------------------------------------------
# Worker kills
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerChaos:
    """Schedule of lease ordinals (1-based) at which a runner dies.

    ``WorkerChaos(die_on_lease={1})`` kills the worker while it holds its
    first lease; the coordinator must steal the shard and the campaign
    must still finish byte-identically.
    """

    die_on_lease: frozenset[int] = frozenset()

    def __init__(self, die_on_lease=()):
        object.__setattr__(self, "die_on_lease", frozenset(die_on_lease))

    def should_die(self, lease_ordinal: int) -> bool:
        return lease_ordinal in self.die_on_lease


# ---------------------------------------------------------------------------
# Network faults
# ---------------------------------------------------------------------------
@dataclass
class ChaosSchedule:
    """Seeded per-exchange fault plan for :class:`ChaosProxy`.

    Each mutating exchange draws one decision from a private
    ``random.Random(seed)`` stream: *drop* the response (the upstream
    still executed it), *delay* it, *duplicate* the whole request (the
    upstream executes it twice), or pass it through.  Rates are
    probabilities in ``[0, 1]``; same seed ⇒ same decision sequence.
    """

    seed: int = 0
    drop: float = 0.0
    delay: float = 0.0
    duplicate: float = 0.0
    delay_seconds: float = 0.05
    #: Registry the decision counters live in
    #: (``repro_chaos_decisions_total{action=...}``).  Inject the
    #: service's registry to surface chaos decisions on its ``/metrics``
    #: scrape; by default each schedule gets a private one.
    registry: Optional[MetricsRegistry] = None

    def __post_init__(self) -> None:
        total = self.drop + self.delay + self.duplicate
        if total > 1.0:
            raise ValueError(f"chaos rates sum to {total} > 1")
        if self.registry is None:
            self.registry = MetricsRegistry()
        for action in CHAOS_ACTIONS:  # pre-create: counts always has all keys
            self._series(action)
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()

    def _series(self, action: str):
        return self.registry.counter(
            "repro_chaos_decisions_total", labels={"action": action}
        )

    @property
    def counts(self) -> dict[str, int]:
        """Decision counters, by action name (a read-only view of the
        ``repro_chaos_decisions_total`` series)."""
        return {action: self._series(action).value for action in CHAOS_ACTIONS}

    def next_action(self) -> tuple[str, float]:
        """The next scheduled action: ``(name, delay_seconds)``."""
        with self._lock:
            draw = self._rng.random()
            if draw < self.drop:
                action = "drop"
            elif draw < self.drop + self.delay:
                action = "delay"
            elif draw < self.drop + self.delay + self.duplicate:
                action = "duplicate"
            else:
                action = "pass"
            self._series(action).inc()
        return action, (self.delay_seconds if action == "delay" else 0.0)


class ChaosProxy:
    """A faulty network between an HTTP client and the service.

    Listens on its own port and forwards each connection's single HTTP
    exchange to ``(upstream_host, upstream_port)``, asking the upstream
    to close after its response (the proxy relays it up to that close;
    a kept-alive upstream connection would never end).  Chaos applies only
    to **POST** exchanges (the mutating fleet/submit calls whose
    idempotence is under test); GETs — including the long-lived NDJSON
    event streams — pass through untouched, so the proxy never has to
    guess where a stream ends.

    Point a :class:`~repro.service.client.ServiceClient` or
    :class:`~repro.service.fleet.FleetRunner` at :attr:`address` and the
    retry/backoff/idempotence machinery is exercised for real.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        schedule: Optional[ChaosSchedule] = None,
        host: str = "127.0.0.1",
    ):
        self.upstream = (upstream_host, upstream_port)
        self.schedule = schedule or ChaosSchedule()
        self._listener = socket.create_server((host, 0))
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-chaos-proxy", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def close(self) -> None:
        self._stop.set()
        self._accept_thread.join(timeout=5)
        self._listener.close()
        for thread in self._threads:
            thread.join(timeout=5)

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                client, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(
                target=self._handle, args=(client,), daemon=True
            )
            thread.start()
            self._threads.append(thread)
            if len(self._threads) > 64:
                self._threads = [t for t in self._threads if t.is_alive()]

    def _handle(self, client: socket.socket) -> None:
        try:
            with client:
                client.settimeout(10.0)
                request = _read_http_message(client)
                if request is None:
                    return
                request = _closing(request)
                action, delay = ("pass", 0.0)
                if request.split(b" ", 1)[0] == b"POST":
                    action, delay = self.schedule.next_action()
                if delay:
                    time.sleep(delay)
                if action == "duplicate":
                    # The retried-POST scenario: upstream executes the
                    # exchange twice, the client sees only the second ack.
                    _exchange_discard(self.upstream, request)
                upstream = socket.create_connection(self.upstream, timeout=30.0)
                with upstream:
                    upstream.sendall(request)
                    if action == "drop":
                        # Let the upstream finish (side effects happen!)
                        # but never deliver its response.
                        _drain(upstream)
                        return
                    _relay(upstream, client)
        except OSError:
            pass  # a torn connection is exactly the weather we simulate


def _read_http_message(sock: socket.socket) -> Optional[bytes]:
    """One HTTP/1.x request (headers + Content-Length body), raw."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            return data or None
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip() or 0)
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            break
        rest += chunk
    return head + b"\r\n\r\n" + rest


def _closing(request: bytes) -> bytes:
    """The request with ``Connection: close`` in place of any
    ``Connection`` header it carried."""
    head, _, body = request.partition(b"\r\n\r\n")
    request_line, *headers = head.split(b"\r\n")
    headers = [
        line for line in headers
        if line.partition(b":")[0].strip().lower() != b"connection"
    ]
    head = b"\r\n".join([request_line, *headers, b"Connection: close"])
    return head + b"\r\n\r\n" + body


def _relay(source: socket.socket, sink: socket.socket) -> None:
    while True:
        chunk = source.recv(65536)
        if not chunk:
            return
        sink.sendall(chunk)


def _drain(sock: socket.socket) -> None:
    while sock.recv(65536):
        pass


def _exchange_discard(upstream: tuple[str, int], request: bytes) -> None:
    with socket.create_connection(upstream, timeout=30.0) as sock:
        sock.sendall(request)
        _drain(sock)


# ---------------------------------------------------------------------------
# Store crashes
# ---------------------------------------------------------------------------
class CrashingStore(ResultStore):
    """A result store that dies after ``crash_after`` committed writes.

    The crash fires *before* the fatal write commits — the classic
    killed-between-WAL-commits window.  Once crashed, every further
    write raises too (the process is "dead"), and a
    :meth:`~ResultStore.transaction` the crash happened in rolls back
    whole, as a killed process never commits it.  Reads keep working so
    the test can inspect what made it to disk.  Recovery is exercised by
    opening a fresh :class:`ResultStore` on the same ``path``.
    """

    def __init__(self, path, crash_after: int, **kwargs: Any):
        self.crash_after = crash_after
        self.writes = 0
        self.crashed = False
        self._chaos_lock = threading.Lock()
        super().__init__(path, **kwargs)

    def _maybe_crash(self, op: str) -> None:
        with self._chaos_lock:
            if self.crashed or self.writes >= self.crash_after:
                self.crashed = True
                raise SimulatedCrash(
                    f"store killed before write #{self.writes + 1} ({op}) "
                    f"committed"
                )
            self.writes += 1

    @contextmanager
    def transaction(self) -> Iterator[None]:
        with super().transaction():
            yield
            if self.crashed:
                raise SimulatedCrash("store killed before the transaction committed")

    def record_job(self, *args: Any, **kwargs: Any):
        self._maybe_crash("record_job")
        return super().record_job(*args, **kwargs)

    def set_state(self, *args: Any, **kwargs: Any):
        self._maybe_crash("set_state")
        return super().set_state(*args, **kwargs)

    def append_event(self, *args: Any, **kwargs: Any):
        self._maybe_crash("append_event")
        return super().append_event(*args, **kwargs)

    def store_shard(self, *args: Any, **kwargs: Any):
        self._maybe_crash("store_shard")
        return super().store_shard(*args, **kwargs)

    def store_result(self, *args: Any, **kwargs: Any):
        self._maybe_crash("store_result")
        return super().store_result(*args, **kwargs)
