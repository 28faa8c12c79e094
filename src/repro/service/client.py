"""Blocking HTTP client for the campaign service (stdlib ``http.client``).

The client is deliberately synchronous — it serves the CLI, the test
suite, :meth:`repro.toolchain.workbench.CampaignBuilder.run`
(``service=...``), and the fleet's :class:`~repro.service.fleet.
FleetRunner`, all of which want a plain call-and-return API.

Connections: each thread that calls the client keeps one HTTP/1.1
connection open and sends all its requests on it; an event stream reads
on a connection of its own.  :meth:`ServiceClient.close` (or leaving a
``with`` block) closes them all.  A request on a kept-alive connection
that the server has meanwhile closed (idle timeout, restart) fails
before any status line arrives; it is resent once on a fresh
connection, outside the retry policy below.

Failure handling is explicit and bounded:

* **connect vs read timeouts** — a service that is down fails fast
  (``connect_timeout``, default 10 s) while a long-running streamed job
  may legitimately stay quiet for minutes (``timeout``); a hung socket
  can no longer block :meth:`stream` forever.
* **retry with exponential backoff + jitter** (:class:`RetryPolicy`) —
  transport errors and 503s are retried; every mutating endpoint the
  client talks to is idempotent (job and shard ids are content hashes),
  so a retried POST whose first response was lost is harmless.
* **Retry-After** — a 503's ``Retry-After`` header is surfaced on
  :class:`ServiceError` and honoured by the backoff loop.
* **stream resume** — :meth:`stream` reconnects after a mid-stream
  transport failure and skips the already-seen event prefix (the server
  replays a job's full event history to each new subscriber).
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Union


#: Events that end a job's stream.  The client stops reading at one of
#: these rather than waiting for EOF: the service's trial workers are
#: forked processes, and a worker forked while this connection was open
#: holds a duplicate of its file descriptor — the server closing its end
#: then never reads as EOF until that worker exits.
TERMINAL_EVENTS = frozenset({"finished", "failed", "cancelled"})


class ServiceError(RuntimeError):
    """An HTTP-level or job-level service failure."""

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        retry_after: Optional[float] = None,
        body: Optional[dict[str, Any]] = None,
    ):
        super().__init__(message)
        self.status = status
        #: Server-suggested delay (seconds) from a ``Retry-After`` header.
        self.retry_after = retry_after
        #: The full parsed JSON error payload, when the server sent one.
        #: ``str(exc)`` only carries its ``"error"`` field; structured
        #: context (``state``, ``fault_models``, ...) lives here.
        self.body = body


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient transport/503 failures.

    Delays run ``base_delay * multiplier**n`` capped at ``max_delay``,
    each stretched by up to ``jitter`` (fractional) so a fleet of
    runners hammered by the same outage does not retry in lockstep.
    ``seed`` pins the jitter stream for deterministic tests.
    """

    attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    retry_statuses: tuple[int, ...] = (503,)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")

    def should_retry(self, error: ServiceError) -> bool:
        # status=None means the transport failed (refused, reset, timed
        # out) before any HTTP status arrived.
        return error.status is None or error.status in self.retry_statuses

    def delay(self, attempt: int, rng: random.Random) -> float:
        backoff = min(
            self.max_delay, self.base_delay * (self.multiplier ** attempt)
        )
        return backoff * (1.0 + self.jitter * rng.random())


#: Zero-retry policy: fail on the first error (used by tests asserting
#: on raw failures, and anywhere a caller runs its own retry loop).
NO_RETRY = RetryPolicy(attempts=1)


class ServiceClient:
    """Talks to one ``repro.service`` HTTP endpoint."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8731,
        timeout: float = 300.0,
        connect_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.connect_timeout = (
            min(10.0, timeout) if connect_timeout is None else connect_timeout
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self._rng = random.Random(self.retry.seed)
        #: Each calling thread's kept-alive connection, and the open
        #: event-stream connections; both guarded by the lock.
        self._kept: dict[threading.Thread, http.client.HTTPConnection] = {}
        self._streams: set[http.client.HTTPConnection] = set()
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, address: Union[str, "ServiceClient"], **kwargs) -> "ServiceClient":
        """Build a client from ``"host:port"`` (or ``"http://host:port"``)."""
        if isinstance(address, ServiceClient):
            return address
        address = address.removeprefix("http://").rstrip("/")
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(
                f"service address must look like 'host:port', got {address!r}"
            )
        return cls(host, int(port), **kwargs)

    def __repr__(self) -> str:
        return f"ServiceClient({self.host}:{self.port})"

    def close(self) -> None:
        """Close every connection the client has open.  The client stays
        usable: the next call opens a fresh connection."""
        with self._lock:
            connections = [*self._kept.values(), *self._streams]
            self._kept.clear()
            self._streams.clear()
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        """Open a connection with the short connect timeout, then widen
        the socket to the (long) read timeout for the exchanges."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.connect_timeout
        )
        try:
            connection.connect()
        except (ConnectionError, OSError) as exc:
            raise self._unreachable(exc) from exc
        connection.sock.settimeout(self.timeout)
        return connection

    def _kept_connection(self) -> tuple[http.client.HTTPConnection, bool]:
        """The calling thread's connection, and whether it was already
        open (a reused connection may have been closed by the server)."""
        thread = threading.current_thread()
        connection = self._kept.get(thread)
        if connection is not None:
            return connection, True
        connection = self._connect()
        with self._lock:
            # Threads that have ended (a runner's heartbeat threads, say)
            # leave their connections behind: close them here.
            for ended in [t for t in self._kept if not t.is_alive()]:
                self._kept.pop(ended).close()
            self._kept[thread] = connection
        return connection, False

    def _drop_kept(self) -> None:
        with self._lock:
            connection = self._kept.pop(threading.current_thread(), None)
        if connection is not None:
            connection.close()

    def _unreachable(self, exc: BaseException) -> ServiceError:
        return ServiceError(f"cannot reach service at {self.host}:{self.port}: {exc}")

    def _exchange(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> bytes:
        """One request on the thread's kept-alive connection; returns the
        response body once the status says success.  A transport failure
        raises :class:`ServiceError` without a status; an HTTP error
        raises it with the status, ``Retry-After`` and the decoded error
        body."""
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        while True:
            connection, reused = self._kept_connection()
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
            except (OSError, http.client.HTTPException) as exc:
                self._drop_kept()
                if reused and not isinstance(exc, TimeoutError):
                    continue  # the server closed it while idle: resend once
                raise self._unreachable(exc) from exc
            try:
                raw = response.read()
            except (OSError, http.client.HTTPException) as exc:
                self._drop_kept()
                raise self._unreachable(exc) from exc
            if response.will_close:
                self._drop_kept()
            _raise_for_status(response, raw)
            return raw

    def _read(self, method: str, path: str, payload: Optional[dict] = None) -> bytes:
        """One call's full response body, with bounded retry-with-backoff
        on transient failures (see :class:`RetryPolicy`)."""
        for attempt in range(self.retry.attempts):
            try:
                return self._exchange(method, path, payload)
            except ServiceError as exc:
                last = attempt == self.retry.attempts - 1
                if last or not self.retry.should_retry(exc):
                    raise
                delay = self.retry.delay(attempt, self._rng)
                if exc.retry_after is not None:
                    delay = max(delay, exc.retry_after)
                time.sleep(min(delay, self.retry.max_delay))
        raise AssertionError("unreachable")  # pragma: no cover

    def _request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> dict[str, Any]:
        """One JSON API call (retried like :meth:`_read`)."""
        raw = self._read(method, path, payload)
        try:
            return json.loads(raw.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"service returned non-JSON: {raw[:200]!r}") from exc

    # -- API ---------------------------------------------------------------
    def service_status(self) -> dict[str, Any]:
        return self._request("GET", "/status")

    def submit(self, job, priority: Optional[int] = None) -> dict[str, Any]:
        """Submit a job (a ``CampaignJob``/``CompileJob`` or its dict
        envelope); returns ``{"job_id", "deduplicated", "state"}``.

        Safe to retry: job ids are content hashes, so a resubmission
        whose first ack was lost simply deduplicates."""
        envelope = job.to_dict() if hasattr(job, "to_dict") else dict(job)
        payload: dict[str, Any] = {"job": envelope}
        if priority is not None:
            payload["priority"] = priority
        return self._request("POST", "/jobs", payload)

    def status(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self, state: Optional[str] = None) -> list[dict[str, Any]]:
        path = "/jobs" + (f"?state={state}" if state else "")
        return self._request("GET", path)["jobs"]

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._request("DELETE", f"/jobs/{job_id}")

    def results(self, job_id: str, wait: bool = False) -> dict[str, Any]:
        """The stored result payload; ``wait=True`` blocks until done."""
        path = f"/jobs/{job_id}/result" + ("?wait=1" if wait else "")
        return self._request("GET", path)["result"]

    def map(self, job_id: str) -> dict[str, Any]:
        """The finished job's per-instruction vulnerability map payload
        (``{"job_id", "kind", "map"}``; rebuild with
        ``VulnerabilityMap.from_dict(payload["map"])``)."""
        return self._request("GET", f"/jobs/{job_id}/map")

    def diff(self, job_a: str, job_b: str) -> dict[str, Any]:
        """Residual-vulnerability diff of two finished campaigns
        (``{"a", "b", "kind", "diff"}``; rebuild with
        ``SchemeDiff.from_dict(payload["diff"])``)."""
        return self._request("GET", f"/diff?a={job_a}&b={job_b}")

    # -- fleet protocol ----------------------------------------------------
    def fleet_lease(
        self, worker: str, ttl: Optional[float] = None
    ) -> dict[str, Any]:
        """Ask the coordinator for one shard lease:
        ``{"shard": {...} | null, "retry_after": seconds}``.  The request
        id makes the call's retries idempotent: a retry after a lost
        response gets the same lease back."""
        payload: dict[str, Any] = {"worker": worker, "request": uuid.uuid4().hex}
        if ttl is not None:
            payload["ttl"] = ttl
        return self._request("POST", "/fleet/lease", payload)

    def fleet_heartbeat(
        self,
        shard_id: str,
        worker: str,
        token: str,
        ttl: Optional[float] = None,
        metrics: Optional[dict[str, Any]] = None,
    ) -> dict[str, Any]:
        """Renew a shard lease; ``{"valid": bool, ...}`` (``False`` means
        the lease was stolen — abandon the shard).  ``metrics`` carries a
        worker registry *delta* (:meth:`repro.obs.metrics.MetricsRegistry.
        delta`) for the coordinator to roll up; deltas make retried beats
        merge without double counting."""
        payload: dict[str, Any] = {"worker": worker, "token": token}
        if ttl is not None:
            payload["ttl"] = ttl
        if metrics is not None:
            payload["metrics"] = metrics
        return self._request(
            "POST", f"/fleet/shards/{shard_id}/heartbeat", payload
        )

    def fleet_result(
        self,
        shard_id: str,
        worker: str,
        token: Optional[str] = None,
        result: Optional[dict[str, Any]] = None,
        error: Optional[str] = None,
        fault_models: Optional[list[str]] = None,
    ) -> dict[str, Any]:
        """Post a shard's result payload — or a structured failure naming
        the in-flight fault models.  Idempotent: shard ids are content
        hashes, so retried/duplicate submissions collapse server-side."""
        payload: dict[str, Any] = {"worker": worker}
        if token is not None:
            payload["token"] = token
        if result is not None:
            payload["result"] = result
        if error is not None:
            payload["error"] = error
            payload["fault_models"] = list(fault_models or [])
        return self._request("POST", f"/fleet/shards/{shard_id}/result", payload)

    # -- observability -----------------------------------------------------
    def metrics(self) -> str:
        """The service's Prometheus text exposition (``GET /metrics``):
        the raw scrape body, since this endpoint serves ``text/plain``."""
        return self._read("GET", "/metrics").decode()

    def trace(self, job_id: str) -> list[dict[str, Any]]:
        """The job's span list (``GET /jobs/<id>/trace``) — live spans
        for a job still executing, the persisted trace once it's done."""
        return self._request("GET", f"/jobs/{job_id}/trace")["spans"]

    # -- streaming ---------------------------------------------------------
    def stream(self, job_id: str) -> Iterator[dict[str, Any]]:
        """Yield the job's NDJSON progress events until it terminates.

        Survives mid-stream transport failures: the server replays a
        job's full event history to every new subscriber, so on
        reconnect the already-delivered prefix is skipped and the stream
        resumes where it broke.  Consecutive failed reconnects are
        bounded by the retry policy."""
        seen = 0
        failures = 0
        while True:
            made_progress = False
            try:
                for event in self._stream_once(job_id, skip=seen):
                    seen += 1
                    made_progress = True
                    failures = 0
                    yield event
                    if event.get("event") in TERMINAL_EVENTS:
                        return
                return  # server ended the stream without a terminal event
            except ServiceError as exc:
                if exc.status is not None:
                    raise  # HTTP-level rejection (404 etc.), not weather
                failures += 1
                if failures >= self.retry.attempts and not made_progress:
                    raise
                time.sleep(
                    min(
                        self.retry.delay(failures - 1, self._rng),
                        self.retry.max_delay,
                    )
                )

    def _stream_once(self, job_id: str, skip: int = 0) -> Iterator[dict[str, Any]]:
        connection = self._connect()
        with self._lock:
            self._streams.add(connection)
        try:
            connection.request("GET", f"/jobs/{job_id}/events")
            response = connection.getresponse()
            if response.status >= 400:
                _raise_for_status(response, response.read())
            position = 0
            for line in response:
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line.decode())
                position += 1
                if position <= skip:
                    continue  # replayed prefix from before a reconnect
                yield event
                if event.get("event") in TERMINAL_EVENTS:
                    return
        except (OSError, http.client.HTTPException) as exc:
            raise ServiceError(f"event stream for {job_id} broke: {exc}") from exc
        finally:
            with self._lock:
                self._streams.discard(connection)
            connection.close()

    def wait(self, job_id: str) -> dict[str, Any]:
        """Block until the job terminates (one request that the server
        answers when the job ends); returns its final status.  Raises
        :class:`ServiceError` if it failed or was cancelled, and with
        status 503 if the service stopped first."""
        status = self._request("GET", f"/jobs/{job_id}?wait=1")
        if status["state"] in ("failed", "cancelled"):
            raise ServiceError(
                f"job {job_id} {status['state']}"
                + (f": {status['error']}" if status.get("error") else "")
            )
        return status

    def run(self, job, priority: Optional[int] = None) -> dict[str, Any]:
        """Submit, wait, and fetch the result payload in two requests.
        Raises :class:`ServiceError` if the job failed or was cancelled."""
        submitted = self.submit(job, priority=priority)
        return self.results(submitted["job_id"], wait=True)


def _raise_for_status(response: http.client.HTTPResponse, raw: bytes) -> None:
    """Raise :class:`ServiceError` for an HTTP error response, with its
    status, ``Retry-After`` and decoded JSON error body."""
    if response.status < 400:
        return
    try:
        data = json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        data = None
    # Keep the whole payload: an error body can carry structured context
    # (state, fault models) beyond the one-line "error" message.
    error_body = data if isinstance(data, dict) else None
    raise ServiceError(
        (error_body or {}).get("error", f"HTTP {response.status}: {raw[:200]!r}"),
        status=response.status,
        retry_after=_retry_after(response),
        body=error_body,
    )


def _retry_after(response: http.client.HTTPResponse) -> Optional[float]:
    value = response.getheader("Retry-After")
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None
