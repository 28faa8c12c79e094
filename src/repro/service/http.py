"""Streaming HTTP API for the campaign service (stdlib asyncio only).

A deliberately small HTTP/1.0-style server on ``asyncio.start_server``
(no web framework — the container ships none):

==========  =============================  =====================================
Method      Path                           Meaning
==========  =============================  =====================================
``GET``     ``/status``                    service health: version, schemes, targets,
                                           queue stats, job counts
``POST``    ``/jobs``                      submit a job (JSON body: the job
                                           envelope, optionally ``{"job": ...,
                                           "priority": N}``) -> 202
``GET``     ``/jobs``                      recent jobs (``?state=`` filter)
``GET``     ``/jobs/<id>``                 one job's status
``DELETE``  ``/jobs/<id>``                 cancel a queued or running job
                                           (takes effect at once)
``GET``     ``/jobs/<id>/events``          **NDJSON stream** — replay of past
                                           events, then live per-attack and
                                           per-batch progress until terminal
``GET``     ``/jobs/<id>/result``          result payload (``?wait=1`` blocks
                                           until the job finishes)
``GET``     ``/jobs/<id>/map``             per-instruction vulnerability map
                                           built from the stored result
                                           (:mod:`repro.analysis`)
``GET``     ``/jobs/<id>/trace``           the job's span tree (live while it
                                           runs, persisted once terminal)
``GET``     ``/metrics``                   Prometheus text exposition of every
                                           registry series (text/plain)
``GET``     ``/diff?a=<id>&b=<id>``        residual-vulnerability diff of two
                                           finished campaigns (same workload,
                                           two schemes)
``POST``    ``/fleet/lease``               lease one campaign shard to a fleet
                                           worker (``{"worker", "ttl",
                                           "request"}`` -> ``{"shard",
                                           "retry_after"}``)
``POST``    ``/fleet/shards/<id>/``        renew a shard lease (``{"worker",
            ``heartbeat``                  "token", "ttl"}``)
``POST``    ``/fleet/shards/<id>/result``  post a shard's result payload (or a
                                           structured failure); idempotent
==========  =============================  =====================================

A shutting-down scheduler answers mutating requests with ``503`` and a
``Retry-After`` header instead of accepting doomed work.

Every response carries ``Connection: close``; the event stream has no
``Content-Length`` and simply ends when the job does, which lets any
line-oriented client (``curl``, ``http.client``) consume it.
"""

from __future__ import annotations

import asyncio
import json
import threading
from contextlib import AsyncExitStack, asynccontextmanager
from typing import Any, AsyncIterator, Optional, Union
from urllib.parse import parse_qs, urlsplit

import repro
from repro.analysis.vulnmap import AnalysisError
from repro.service.jobs import JobError, job_from_dict
from repro.service.queue import PRIORITY_DEFAULT, JobScheduler, UnknownJobError
from repro.service.store import ResultStore

#: Largest accepted request body (sources + device images are small).
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServiceServer:
    """The asyncio HTTP front end over one :class:`JobScheduler`."""

    def __init__(
        self, scheduler: JobScheduler, host: str = "127.0.0.1", port: int = 0
    ):
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None

    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the (host, port) actually bound
        (``port=0`` picks a free one)."""
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling ----------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is not None:
                await self._route(writer, *request)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # noqa: BLE001 — a bad request must not kill the server
            try:
                await self._respond(writer, 500, {"error": f"{type(exc).__name__}: {exc}"})
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        request_line = await reader.readline()
        if not request_line.strip():
            return None
        try:
            method, target, _version = request_line.decode("latin-1").split()
        except ValueError:
            return None
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or 0)
        if length > MAX_BODY_BYTES:
            raise JobError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    # -- routing -----------------------------------------------------------
    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes,
    ) -> None:
        url = urlsplit(target)
        parts = [p for p in url.path.split("/") if p]
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        try:
            if parts == ["status"] and method == "GET":
                await self._respond(writer, 200, self._service_status())
            elif parts == ["metrics"] and method == "GET":
                await self._metrics(writer)
            elif parts == ["jobs"] and method == "POST":
                if await self._unavailable(writer):
                    return
                await self._submit(writer, body)
            elif parts == ["fleet", "lease"] and method == "POST":
                if await self._unavailable(writer):
                    return
                await self._fleet_lease(writer, body)
            elif (
                len(parts) == 4
                and parts[:2] == ["fleet", "shards"]
                and parts[3] == "heartbeat"
                and method == "POST"
            ):
                await self._fleet_heartbeat(writer, parts[2], body)
            elif (
                len(parts) == 4
                and parts[:2] == ["fleet", "shards"]
                and parts[3] == "result"
                and method == "POST"
            ):
                await self._fleet_result(writer, parts[2], body)
            elif parts == ["jobs"] and method == "GET":
                jobs = self.scheduler.store.list_jobs(state=query.get("state"))
                await self._respond(
                    writer, 200, {"jobs": [r.to_dict() for r in jobs]}
                )
            elif len(parts) == 2 and parts[0] == "jobs" and method == "GET":
                await self._respond(writer, 200, self.scheduler.status(parts[1]))
            elif len(parts) == 2 and parts[0] == "jobs" and method == "DELETE":
                await self._respond(writer, 200, self.scheduler.cancel(parts[1]))
            elif (
                len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "events"
                and method == "GET"
            ):
                await self._stream_events(writer, parts[1])
            elif (
                len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "result"
                and method == "GET"
            ):
                await self._result(writer, parts[1], wait="wait" in query)
            elif (
                len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "map"
                and method == "GET"
            ):
                await self._map(writer, parts[1])
            elif (
                len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "trace"
                and method == "GET"
            ):
                await self._trace(writer, parts[1])
            elif parts == ["diff"] and method == "GET":
                await self._diff(writer, query)
            else:
                await self._respond(
                    writer, 404, {"error": f"no route for {method} {url.path}"}
                )
        except UnknownJobError as exc:
            await self._respond(writer, 404, {"error": f"unknown job {exc.args[0]}"})
        except JobError as exc:
            await self._respond(writer, 400, {"error": str(exc)})
        except AnalysisError as exc:
            await self._respond(writer, 400, {"error": str(exc)})

    def _service_status(self) -> dict[str, Any]:
        from repro.spec import PREDICTORS, SpecConfig
        from repro.target import list_targets
        from repro.toolchain.registry import list_schemes

        workbench = self.scheduler.workbench
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
            "runners": self.scheduler.runners,
            "trial_workers": self.scheduler.trial_workers,
            "queue": self.scheduler.stats.to_dict(),
            "fleet": self.scheduler.fleet.status(),
            "jobs": self.scheduler.store.counts(),
            "compile_cache": {
                "hits": workbench.hits,
                "misses": workbench.misses,
                "programs": workbench.cached_programs,
            },
            "observability": self.scheduler.observability_status(),
        }

    async def _metrics(self, writer: asyncio.StreamWriter) -> None:
        scheduler = self.scheduler
        loop = asyncio.get_running_loop()
        # Off-loop: collect() polls the fleet coordinator (its lock is
        # also taken by runner threads) and the store.
        text = await loop.run_in_executor(
            None, lambda: scheduler.collect().render_prometheus()
        )
        await self._respond(writer, 200, text, headers={"Cache-Control": "no-store"})

    async def _trace(self, writer: asyncio.StreamWriter, job_id: str) -> None:
        spans = self.scheduler.trace(job_id)  # raises 404 if unknown
        if spans is None:
            status = self.scheduler.status(job_id)
            await self._respond(
                writer,
                409,
                {
                    "error": f"job {job_id} has no recorded trace "
                    f"(observability disabled, or a pre-tracing row)",
                    "state": status["state"],
                },
            )
            return
        await self._respond(writer, 200, {"job_id": job_id, "spans": spans})

    async def _unavailable(self, writer: asyncio.StreamWriter) -> bool:
        """503 + Retry-After when the scheduler is shutting down."""
        if not self.scheduler.closed:
            return False
        await self._respond(
            writer,
            503,
            {"error": "service is shutting down; retry shortly"},
            headers={"Retry-After": "1"},
        )
        return True

    @staticmethod
    def _json_body(body: bytes) -> dict[str, Any]:
        try:
            data = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise JobError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise JobError("request body must be a JSON object")
        return data

    # -- fleet endpoints ---------------------------------------------------
    async def _fleet_lease(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        data = self._json_body(body)
        worker = data.get("worker")
        if not isinstance(worker, str) or not worker:
            raise JobError("fleet lease needs a 'worker' id")
        request = data.get("request")
        if request is not None and not isinstance(request, str):
            raise JobError("fleet lease 'request' must be a string id")
        fleet = self.scheduler.fleet
        loop = asyncio.get_running_loop()
        # Off-loop: the coordinator lock is also taken by runner threads
        # executing local shards; never let it stall the event loop.
        shard = await loop.run_in_executor(
            None, fleet.lease, worker, data.get("ttl"), request
        )
        await self._respond(
            writer,
            200,
            {
                "shard": shard,
                # Empty pool: suggest a poll cadence well inside the
                # lease TTL so workers notice new work promptly.
                "retry_after": 0.0 if shard else min(0.2, fleet.lease_ttl / 4),
            },
        )

    async def _fleet_heartbeat(
        self, writer: asyncio.StreamWriter, shard_id: str, body: bytes
    ) -> None:
        data = self._json_body(body)
        metrics = data.get("metrics")
        if metrics is not None and not isinstance(metrics, dict):
            raise JobError("heartbeat 'metrics' must be an object")
        fleet = self.scheduler.fleet
        loop = asyncio.get_running_loop()
        payload = await loop.run_in_executor(
            None,
            lambda: fleet.heartbeat(
                shard_id,
                str(data.get("worker") or ""),
                str(data.get("token") or ""),
                data.get("ttl"),
                metrics=metrics,
            ),
        )
        await self._respond(writer, 200, payload)

    async def _fleet_result(
        self, writer: asyncio.StreamWriter, shard_id: str, body: bytes
    ) -> None:
        data = self._json_body(body)
        result = data.get("result")
        error = data.get("error")
        if result is None and error is None:
            raise JobError("shard result needs 'result' or 'error'")
        if result is not None and not isinstance(result, dict):
            raise JobError("shard 'result' must be an object")
        fleet = self.scheduler.fleet
        loop = asyncio.get_running_loop()
        # Off-loop: accepting a result persists the shard synchronously
        # (durability before the ack) — a store write must not block
        # lease/heartbeat traffic on the event loop.
        ack = await loop.run_in_executor(
            None,
            lambda: fleet.submit_result(
                shard_id,
                str(data.get("worker") or ""),
                payload=result,
                token=data.get("token"),
                error=error,
                fault_models=data.get("fault_models"),
            ),
        )
        await self._respond(writer, 200, ack)

    async def _submit(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        data = self._json_body(body)
        envelope = data.get("job", data)
        priority = data.get("priority", PRIORITY_DEFAULT)
        if not isinstance(priority, int):
            raise JobError(f"priority must be an int, got {priority!r}")
        job = job_from_dict(envelope)
        job_id, deduplicated = self.scheduler.submit(job, priority=priority)
        await self._respond(
            writer,
            202,
            {
                "job_id": job_id,
                "deduplicated": deduplicated,
                "state": self.scheduler.status(job_id)["state"],
            },
        )

    async def _result(
        self, writer: asyncio.StreamWriter, job_id: str, wait: bool
    ) -> None:
        if wait:
            payload = await self.scheduler.result(job_id)
        else:
            payload = self.scheduler.store.get_result(job_id)
            if payload is None:
                status = self.scheduler.status(job_id)  # raises 404 if unknown
                await self._respond(
                    writer,
                    409,
                    {
                        "error": f"job {job_id} is {status['state']}; "
                        f"retry with ?wait=1 or after completion",
                        "state": status["state"],
                    },
                )
                return
        await self._respond(
            writer, 200, {"job_id": job_id, "state": "done", "result": payload}
        )

    async def _finished_or_409(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> bool:
        """True when the job has a stored result; otherwise answers 409
        (or raises :class:`UnknownJobError` for a 404)."""
        if self.scheduler.store.has_result(job_id):
            return True
        status = self.scheduler.status(job_id)  # raises 404 if unknown
        await self._respond(
            writer,
            409,
            {
                "error": f"job {job_id} is {status['state']}; analysis "
                f"needs a finished campaign",
                "state": status["state"],
            },
        )
        return False

    async def _map(self, writer: asyncio.StreamWriter, job_id: str) -> None:
        if not await self._finished_or_409(writer, job_id):
            return
        payload = await self.scheduler.vulnerability_map(job_id)
        await self._respond(writer, 200, payload)

    async def _diff(
        self, writer: asyncio.StreamWriter, query: dict[str, str]
    ) -> None:
        job_a, job_b = query.get("a"), query.get("b")
        if not job_a or not job_b:
            raise JobError("diff needs ?a=<job_id>&b=<job_id>")
        for job_id in (job_a, job_b):
            if not await self._finished_or_409(writer, job_id):
                return
        payload = await self.scheduler.scheme_diff(job_a, job_b)
        await self._respond(writer, 200, payload)

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        # Validate before committing to a 200 streaming header.
        events = self.scheduler.events(job_id)
        first = await anext(events, None)  # raises UnknownJobError if unknown
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        if first is not None:
            writer.write(json.dumps(first).encode() + b"\n")
            await writer.drain()
            async for event in events:
                writer.write(json.dumps(event).encode() + b"\n")
                await writer.drain()

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
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
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()


@asynccontextmanager
async def serving(
    db_path: str,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    resume: bool = True,
    **scheduler_options: Any,
) -> AsyncIterator[tuple[ServiceServer, int, int]]:
    """Run a whole service for the body of the ``async with``: open the
    store, sweep phantom ``running`` rows, start the scheduler, resume
    unfinished jobs and start the HTTP server, then undo each step in
    reverse.  Yields ``(server, rows swept, jobs resumed)``."""
    async with AsyncExitStack() as stack:
        store = stack.enter_context(ResultStore(db_path))
        # Startup sweep *before* serving: a coordinator killed between
        # the ledger insert and its first event leaves phantom 'running'
        # rows — reset them to 'queued' so they resume as PENDING (and
        # never surface as running work nobody is doing).
        recovered = store.recover_interrupted()
        scheduler = await JobScheduler(store=store, **scheduler_options).start()
        stack.push_async_callback(scheduler.close)
        resumed = scheduler.resume_from_store() if resume else 0
        server = ServiceServer(scheduler, host=host, port=port)
        await server.start()
        stack.push_async_callback(server.close)
        yield server, recovered, resumed


class BackgroundService:
    """A whole service (store + scheduler + HTTP server) on a private
    event-loop thread — the one-liner tests, examples, and notebooks use::

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
        self.db_path = db_path
        self.runners = runners
        self.trial_workers = trial_workers
        self.host = host
        self.port = port
        self.resume = resume
        self.lease_ttl = lease_ttl
        self.observability = observability
        self.scheduler: Optional[JobScheduler] = None
        self.resumed_jobs = 0
        #: Phantom 'running' rows swept back to 'queued' at startup.
        self.recovered_jobs = 0
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    # -- context manager ---------------------------------------------------
    def __enter__(self) -> "BackgroundService":
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

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

    # -- loop thread -------------------------------------------------------
    def _thread_main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # noqa: BLE001 — surfaced via __enter__
            self._startup_error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        async with serving(
            self.db_path,
            host=self.host,
            port=self.port,
            resume=self.resume,
            runners=self.runners,
            trial_workers=self.trial_workers,
            lease_ttl=self.lease_ttl,
            observability=self.observability,
        ) as (server, self.recovered_jobs, self.resumed_jobs):
            self.scheduler = server.scheduler
            self.host, self.port = server.host, server.port
            self._ready.set()
            await self._stop.wait()
