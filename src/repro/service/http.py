"""Streaming HTTP API for the campaign service (stdlib ``http.server``).

A :class:`http.server.ThreadingHTTPServer`: each connection gets a
thread, so a request that blocks holds up only its own connection.

The routes are the cases of ``_Handler._route``; ``docs/service-api.md``
documents each one: ``/status``, ``/metrics``, ``/jobs`` (submit, list),
``/jobs/<id>`` (status, ``?wait=1`` blocks until the job ends, cancel)
with ``/events`` (an **NDJSON stream**: past events, then live ones until
the job ends), ``/result`` (``?wait=1`` blocks), ``/map`` and ``/trace``,
``/diff?a=<id>&b=<id>``, and the fleet protocol: ``/fleet/lease`` and
``/fleet/shards/<id>/heartbeat`` and ``/result``.

A shutting-down scheduler answers mutating requests (and waits it cannot
finish) with ``503`` and a ``Retry-After`` header instead of accepting
doomed work.  A malformed request answers ``400``; every error body is
JSON ``{"error": ...}``.

Connections are HTTP/1.1 keep-alive: a success with a
``Content-Length`` leaves the connection open for the client's next
request, and a connection idle for :data:`IDLE_TIMEOUT_S` is closed.
The server closes after the event stream (it has no
``Content-Length`` and simply ends when the job does, which lets any
line-oriented client such as ``curl`` consume it), after every 4xx/5xx
(the request body may be unread), after an HTTP/1.0 request or one
sending ``Connection: close``, and after a request with a
``Transfer-Encoding`` (answered 400: bodies are read by
``Content-Length`` only).
"""

from __future__ import annotations

import contextlib
import json
import math
import socket
import sys
import threading
import traceback
from contextlib import ExitStack, contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterator, Optional, Union
from urllib.parse import parse_qs, urlsplit

import repro
from repro.analysis.vulnmap import AnalysisError
from repro.service.jobs import JobError, job_from_dict
from repro.service.queue import PRIORITY_DEFAULT, JobScheduler, UnknownJobError
from repro.service.store import ResultStore

#: Largest accepted request body (sources + device images are small).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Seconds a kept-alive connection may wait for its next request before
#: the server closes it.
IDLE_TIMEOUT_S = 60.0


class ServiceServer(ThreadingHTTPServer):
    """The HTTP front end over one :class:`JobScheduler`."""

    #: Listen backlog (the stdlib default is 5).
    request_queue_size = 128

    def __init__(
        self, scheduler: JobScheduler, host: str = "127.0.0.1", port: int = 0
    ):
        self.scheduler = scheduler
        #: Accepted connections not yet closed (guarded by the lock).
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__((host, port), _Handler)
        #: The address actually bound (``port=0`` picks a free one).
        self.host, self.port = self.server_address[:2]

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def close_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
            super().close_request(request)

    def server_close(self) -> None:
        """Stop listening, and end every open connection's reading side:
        an idle handler sees the end of its input and exits, while one
        still answering (a waiter the scheduler's shutdown releases) can
        write its response."""
        super().server_close()
        with self._connections_lock:
            for connection in self._connections:
                with contextlib.suppress(OSError):
                    connection.shutdown(socket.SHUT_RD)

    def handle_error(self, request, client_address) -> None:
        # A client that hung up mid-response is not a server error.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    """Serves one request: every method (``do_GET``, ``do_POST``, ...)
    goes to :meth:`_route`, which answers 404 for a method a path does
    not take."""

    server: ServiceServer
    protocol_version = "HTTP/1.1"
    #: Answer even an unparsable request line with a status line (the
    #: stdlib default, HTTP/0.9, has none).
    default_request_version = "HTTP/1.1"
    #: Buffered writes: a response's head and body leave in one send.
    wbufsize = -1

    def __getattr__(self, name: str):
        if name.startswith("do_"):
            return self._route
        raise AttributeError(name)

    def setup(self) -> None:
        self.timeout = IDLE_TIMEOUT_S
        super().setup()

    def handle_one_request(self) -> None:
        try:
            self.rfile.peek(1)  # wait for the next request, or the end
        except TimeoutError:
            self.close_connection = True  # idle too long: a routine close
            return
        super().handle_one_request()

    def send_error(self, code, message=None, explain=None) -> None:
        """The stdlib's own errors (bad request line, oversized headers)
        in the JSON error shape."""
        self._respond(code, {"error": message or self.responses[code][0]})

    # -- routing -----------------------------------------------------------
    def _route(self) -> None:
        scheduler = self.server.scheduler
        method = self.command.upper()
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        try:
            if "Transfer-Encoding" in self.headers:
                raise JobError(
                    "Transfer-Encoding is not supported; send the body with "
                    "a Content-Length"
                )
            body = self._body()
            match [method, *parts]:
                case ["GET", "status"]:
                    self._respond(200, self._service_status())
                case ["GET", "metrics"]:
                    self._respond(
                        200,
                        scheduler.collect().render_prometheus(),
                        headers={"Cache-Control": "no-store"},
                    )
                case ["POST", "jobs"]:
                    if not self._unavailable():
                        self._submit(body)
                case ["POST", "fleet", "lease"]:
                    if not self._unavailable():
                        self._fleet_lease(body)
                case ["POST", "fleet", "shards", shard_id, "heartbeat"]:
                    self._fleet_heartbeat(shard_id, body)
                case ["POST", "fleet", "shards", shard_id, "result"]:
                    self._fleet_result(shard_id, body)
                case ["GET", "jobs"]:
                    jobs = scheduler.store.list_jobs(state=query.get("state"))
                    self._respond(200, {"jobs": [r.to_dict() for r in jobs]})
                case ["GET", "jobs", job_id]:
                    if "wait" in query and not scheduler.wait(job_id):
                        self._unavailable()  # the service closed first
                    else:
                        self._respond(200, scheduler.status(job_id))
                case ["DELETE", "jobs", job_id]:
                    self._respond(200, scheduler.cancel(job_id))
                case ["GET", "jobs", job_id, "events"]:
                    self._stream_events(job_id)
                case ["GET", "jobs", job_id, "result"]:
                    self._result(job_id, wait="wait" in query)
                case ["GET", "jobs", job_id, "map"]:
                    if self._finished_or_409(job_id):
                        self._respond(200, scheduler.vulnerability_map(job_id))
                case ["GET", "jobs", job_id, "trace"]:
                    spans = scheduler.trace(job_id)
                    if spans is None:
                        self._conflict(job_id, "has no recorded trace (observability "
                                       "disabled, or a pre-tracing row)")
                    else:
                        self._respond(200, {"job_id": job_id, "spans": spans})
                case ["GET", "diff"]:
                    self._diff(query)
                case _:
                    self._respond(404, {"error": f"no route for {method} {url.path}"})
        except UnknownJobError as exc:
            self._respond(404, {"error": f"unknown job {exc.args[0]}"})
        except (JobError, AnalysisError) as exc:
            self._respond(400, {"error": str(exc)})
        except (ConnectionError, TimeoutError):
            raise  # the client hung up or stalled: nobody to answer
        except Exception as exc:  # noqa: BLE001 — a bad request must not kill the server
            traceback.print_exc()
            self._respond(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _body(self) -> bytes:
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            raise JobError(f"Content-Length {declared!r} is not a number") from None
        if not 0 <= length <= MAX_BODY_BYTES:
            raise JobError(
                f"Content-Length must be 0 to {MAX_BODY_BYTES} bytes, got {length}"
            )
        body = self.rfile.read(length)
        if len(body) != length:
            raise JobError(f"request body ended after {len(body)} of {length} bytes")
        return body

    def _service_status(self) -> dict[str, Any]:
        from repro.spec import PREDICTORS, SpecConfig
        from repro.target import list_targets
        from repro.toolchain.registry import list_schemes

        scheduler = self.server.scheduler
        workbench = scheduler.workbench
        return {
            "service": "repro.service",
            "version": repro.__version__,
            "schemes": list(list_schemes()),
            "targets": list(list_targets()),
            "speculation": {
                "suite": "speculative",
                "predictors": sorted(PREDICTORS),
                "defaults": SpecConfig().to_dict(),
            },
            "runners": scheduler.runners,
            "trial_workers": scheduler.trial_workers,
            "queue": scheduler.stats.to_dict(),
            "fleet": scheduler.fleet.status(),
            "jobs": scheduler.store.counts(),
            "compile_cache": {
                "hits": workbench.hits,
                "misses": workbench.misses,
                "programs": workbench.cached_programs,
            },
            "observability": scheduler.observability_status(),
        }

    def _unavailable(self) -> bool:
        """503 + Retry-After when the scheduler is shutting down."""
        if not self.server.scheduler.closed:
            return False
        self._respond(
            503,
            {"error": "service is shutting down; retry shortly"},
            headers={"Retry-After": "1"},
        )
        return True

    @staticmethod
    def _json_body(body: bytes) -> dict[str, Any]:
        try:
            data = json.loads(body.decode() or "{}")
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
            raise JobError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise JobError("request body must be a JSON object")
        return data

    # -- fleet endpoints ---------------------------------------------------
    def _fleet_lease(self, body: bytes) -> None:
        data = self._json_body(body)
        worker = _worker(data)
        request = data.get("request")
        if request is not None and not isinstance(request, str):
            raise JobError("fleet lease 'request' must be a string id")
        fleet = self.server.scheduler.fleet
        shard = fleet.lease(worker, _ttl(data), request)
        self.server.scheduler.sync()
        self._respond(
            200,
            {
                "shard": shard,
                # Empty pool: suggest a poll cadence well inside the
                # lease TTL so workers notice new work promptly.
                "retry_after": 0.0 if shard else min(0.2, fleet.lease_ttl / 4),
            },
        )

    def _fleet_heartbeat(self, shard_id: str, body: bytes) -> None:
        data = self._json_body(body)
        metrics = data.get("metrics")
        if metrics is not None and not isinstance(metrics, dict):
            raise JobError("heartbeat 'metrics' must be an object")
        payload = self.server.scheduler.fleet.heartbeat(
            shard_id,
            _worker(data),
            str(data.get("token") or ""),
            _ttl(data),
            metrics=metrics,
        )
        self.server.scheduler.sync()
        self._respond(200, payload)

    def _fleet_result(self, shard_id: str, body: bytes) -> None:
        data = self._json_body(body)
        worker = _worker(data)
        result = data.get("result")
        error = data.get("error")
        if result is None and error is None:
            raise JobError("shard result needs 'result' or 'error'")
        if result is not None:
            _check_shard_payload(result)
        fault_models = data.get("fault_models")
        if fault_models is not None and not isinstance(fault_models, list):
            raise JobError("shard 'fault_models' must be a list")
        ack = self.server.scheduler.fleet.submit_result(
            shard_id,
            worker,
            payload=result,
            token=data.get("token"),
            error=error,
            fault_models=fault_models,
        )
        self.server.scheduler.sync()
        self._respond(200, ack)

    # -- jobs --------------------------------------------------------------
    def _submit(self, body: bytes) -> None:
        data = self._json_body(body)
        envelope = data.get("job", data)
        priority = data.get("priority", PRIORITY_DEFAULT)
        if not isinstance(priority, int):
            raise JobError(f"priority must be an int, got {priority!r}")
        job = job_from_dict(envelope)
        scheduler = self.server.scheduler
        job_id, deduplicated = scheduler.submit(job, priority=priority)
        self._respond(
            202,
            {
                "job_id": job_id,
                "deduplicated": deduplicated,
                "state": scheduler.status(job_id)["state"],
            },
        )

    def _result(self, job_id: str, wait: bool) -> None:
        # A waited job that failed or was cancelled raises JobError: 400.
        payload = self.server.scheduler.result(job_id, wait=wait)
        if payload is not None:
            self._respond(200, {"job_id": job_id, "state": "done", "result": payload})
        elif wait:  # the service closed before the job ended
            self._unavailable()
        else:
            self._conflict(job_id, "is {state}; retry with ?wait=1 or after completion")

    def _finished_or_409(self, job_id: str) -> bool:
        """True when the job has a stored result; otherwise answers 409
        (or raises :class:`UnknownJobError` for a 404)."""
        if self.server.scheduler.store.has_result(job_id):
            return True
        self._conflict(job_id, "is {state}; analysis needs a finished campaign")
        return False

    def _conflict(self, job_id: str, why: str) -> None:
        """409 with the job's state, which ``why`` may cite as
        ``{state}`` (raises :class:`UnknownJobError` for an unknown
        job)."""
        state = self.server.scheduler.status(job_id)["state"]
        error = f"job {job_id} " + why.format(state=state)
        self._respond(409, {"error": error, "state": state})

    def _diff(self, query: dict[str, str]) -> None:
        job_a, job_b = query.get("a"), query.get("b")
        if not job_a or not job_b:
            raise JobError("diff needs ?a=<job_id>&b=<job_id>")
        if self._finished_or_409(job_a) and self._finished_or_409(job_b):
            self._respond(200, self.server.scheduler.scheme_diff(job_a, job_b))

    def _stream_events(self, job_id: str) -> None:
        # Raises UnknownJobError (404) before the 200 header is written.
        events = self.server.scheduler.events(job_id)
        self._head(200, "application/x-ndjson", {"Cache-Control": "no-store"})
        for event in events:
            self.wfile.write(json.dumps(event).encode() + b"\n")
            self.wfile.flush()

    # -- responses ---------------------------------------------------------
    def _head(
        self, status: int, content_type: str, headers: dict[str, str]
    ) -> None:
        """The status line and headers.  The connection stays open for
        the next request only after a success with a ``Content-Length``,
        and only for an HTTP/1.1 client that did not ask to close."""
        self.send_response_only(status)
        self.send_header("Content-Type", content_type)
        for name, value in headers.items():
            self.send_header(name, value)
        keep_alive = (
            status < 400
            and "Content-Length" in headers
            and self.request_version == "HTTP/1.1"
            and not self.close_connection
        )
        if not keep_alive:
            self.send_header("Connection", "close")  # sets close_connection
        self.end_headers()

    def _respond(
        self,
        status: int,
        payload: Union[dict[str, Any], str],
        headers: Optional[dict[str, str]] = None,
    ) -> None:
        """A JSON response, or plain text for a ``str`` payload (the
        Prometheus exposition format is ``text/plain``)."""
        if isinstance(payload, str):
            body = payload.encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode()
            content_type = "application/json"
        self._head(
            status, content_type, {"Content-Length": str(len(body)), **(headers or {})}
        )
        self.wfile.write(body)


def _worker(data: dict[str, Any]) -> str:
    """A fleet request's ``worker`` id: a non-empty string (an empty one
    would register as an active worker and pause local execution)."""
    worker = data.get("worker")
    if not isinstance(worker, str) or not worker:
        raise JobError("fleet requests need a non-empty string 'worker' id")
    return worker


#: The fields of a shard payload (``CampaignJob.run_shard``) and their
#: JSON types: the coordinator merges a job's last shard from them.
_SHARD_FIELDS = {
    "shard": (str, "a string"),
    "attack": (str, "a string"),
    "index": (int, "an integer"),
    "scheme": (str, "a string"),
    "result": (dict, "an object"),
}


def _check_shard_payload(result: Any) -> None:
    if not isinstance(result, dict):
        raise JobError("shard 'result' must be an object")
    for name, (kind, label) in _SHARD_FIELDS.items():
        value = result.get(name)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise JobError(f"shard 'result' needs {name!r} as {label}, got {value!r}")


def _ttl(data: dict[str, Any]) -> Optional[float]:
    """A fleet request's optional lease ``ttl``: finite seconds or null."""
    ttl = data.get("ttl")
    if ttl is None:
        return None
    if isinstance(ttl, bool) or not isinstance(ttl, (int, float)) or not math.isfinite(ttl):
        raise JobError(f"'ttl' must be a finite number of seconds or null, got {ttl!r}")
    return float(ttl)


@contextmanager
def serving(
    db_path: str,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    resume: bool = True,
    **scheduler_options: Any,
) -> Iterator[tuple[ServiceServer, int, int]]:
    """Run a whole service for the body of the ``with``: open the store,
    sweep phantom ``running`` rows, start the scheduler, resume
    unfinished jobs and bind the HTTP server, then undo each step in
    reverse.  Yields ``(server, rows swept, jobs resumed)``; the caller
    runs ``server.serve_forever()``, and a ``shutdown()`` from another
    thread ends it."""
    with ResultStore(db_path) as store:
        # Startup sweep *before* serving: a coordinator killed between
        # the ledger insert and its first event leaves phantom 'running'
        # rows — reset them to 'queued' so they resume as PENDING (and
        # never surface as running work nobody is doing).
        recovered = store.recover_interrupted()
        scheduler = JobScheduler(store=store, **scheduler_options)
        try:
            resumed = scheduler.resume_from_store() if resume else 0
            with ServiceServer(scheduler, host=host, port=port) as server:
                yield server, recovered, resumed
        finally:
            scheduler.close()


class BackgroundService:
    """A whole service (store + scheduler + HTTP server) with its
    ``serve_forever`` on a background thread — the one-liner tests,
    examples, and notebooks use::

        with BackgroundService(db_path="campaigns.sqlite") as service:
            report = workbench.campaign(src, "f", [1]).attack(...).run(
                service=service.address_str
            )
    """

    def __init__(
        self,
        db_path: str = ":memory:",
        runners: int = 2,
        trial_workers: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        resume: bool = True,
        lease_ttl: float = 10.0,
        observability: bool = True,
    ):
        self.host = host
        self.port = port
        self._options = dict(
            db_path=db_path,
            resume=resume,
            runners=runners,
            trial_workers=trial_workers,
            lease_ttl=lease_ttl,
            observability=observability,
        )
        self.scheduler: Optional[JobScheduler] = None
        self.resumed_jobs = 0
        #: Phantom 'running' rows swept back to 'queued' at startup.
        self.recovered_jobs = 0
        self._stack = ExitStack()

    # -- context manager ---------------------------------------------------
    def __enter__(self) -> "BackgroundService":
        """Start the service in the caller's thread (a start-up error
        raises here), then serve on a background thread."""
        server, self.recovered_jobs, self.resumed_jobs = self._stack.enter_context(
            serving(host=self.host, port=self.port, **self._options)
        )
        self.scheduler = server.scheduler
        self.host, self.port = server.host, server.port
        # Poll for shutdown() often: the stdlib's 0.5 s would be added to
        # every close.
        thread = threading.Thread(
            target=server.serve_forever,
            args=(0.05,),
            name="repro-service",
            daemon=True,
        )
        thread.start()
        self._stack.callback(thread.join)
        self._stack.callback(server.shutdown)
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop serving, then shut the service down (see :func:`serving`)."""
        self._stack.close()

    # -- conveniences ------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    @property
    def address_str(self) -> str:
        return f"{self.host}:{self.port}"

    def client(self, timeout: float = 300.0, **kwargs):
        from repro.service.client import ServiceClient

        return ServiceClient(self.host, self.port, timeout=timeout, **kwargs)

    @property
    def fleet(self):
        """The scheduler's :class:`~repro.service.fleet.FleetCoordinator`."""
        assert self.scheduler is not None, "service not started"
        return self.scheduler.fleet
