"""Robustness of the service over raw sockets: malformed input answers a
structured 4xx, never a 500 or silence, connections stay open between
requests only when both sides can tell where each message ends, and the
commit thread keeps every job's stream, status and persisted event log
in agreement under concurrent load, cancellation and shutdown.
"""

import contextlib
import http.client
import json
import random
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.http
from repro.programs import load_source
from repro.service import BackgroundService, ServiceError
from repro.service.client import NO_RETRY
from repro.service.http import ServiceServer
from repro.service.jobs import AttackSpec, CampaignJob
from repro.service.queue import PERSISTED_EVENTS
from repro.toolchain import CompileConfig

TERMINAL = {"finished": "done", "failed": "failed", "cancelled": "cancelled"}


def quick_job(args, scheme="none"):
    return CampaignJob(
        source=load_source("integer_compare"),
        function="integer_compare",
        args=tuple(args),
        config=CompileConfig(scheme=scheme),
        attacks=(
            AttackSpec.make("branch-flip", max_branches=2),
            AttackSpec.make("repeated-branch-flip"),
        ),
    )


#: A request every service answers 200 with a ``Content-Length``.
STATUS_REQUEST = b"GET /status HTTP/1.1\r\nHost: test\r\n\r\n"


def parse_head(head: bytes):
    """``(status line, {lower-case header name: value})``."""
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status_line, headers


def read_reply(sock):
    """One response with a ``Content-Length`` off ``sock``, read without
    consuming anything after it: ``(status line, headers, body)``."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        byte = sock.recv(1)
        assert byte, f"connection closed after {head!r}"
        head += byte
    status_line, headers = parse_head(head[:-4])
    body = b""
    while len(body) < int(headers.get("content-length", 0)):
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        body += chunk
    return status_line, headers, body


def raw_exchange(address, request: bytes, timeout=30.0, second=False):
    """Send ``request`` as is, close our sending side (so a short body
    reads as EOF), and parse the reply: ``(status line, headers, body)``.
    A server that answers before reading a body longer than declared
    closes with bytes unread, which resets the connection once the reply
    is out.  With ``second``, ``request`` is the second request on its
    connection, after a ``GET /status`` that left it open."""
    chunks = []
    with socket.create_connection(address, timeout=timeout) as sock:
        if second:
            sock.sendall(STATUS_REQUEST)
            status_line, headers, _ = read_reply(sock)
            assert status_line.split()[1] == "200" and "connection" not in headers
        sock.sendall(request)
        with contextlib.suppress(OSError):  # reset already; the reply is queued
            sock.shutdown(socket.SHUT_WR)
        with contextlib.suppress(ConnectionResetError):
            while chunk := sock.recv(65536):
                chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return (*parse_head(head), body)


def post(path, body, length=None):
    if not isinstance(body, bytes):
        body = json.dumps(body).encode()
    length = len(body) if length is None else length
    return (
        f"POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {length}\r\n\r\n"
    ).encode() + body


def assert_json_4xx(reply):
    status_line, headers, body = reply
    version, status, _ = status_line.split(" ", 2)
    assert version == "HTTP/1.1"
    assert 400 <= int(status) < 500, reply
    assert headers["connection"] == "close"
    assert headers["content-type"] == "application/json"
    assert isinstance(json.loads(body)["error"], str)
    return int(status)


@pytest.fixture(scope="module")
def service():
    with BackgroundService(runners=1) as svc:
        yield svc


ENVELOPE = quick_job((1, 2)).to_dict()


# ---------------------------------------------------------------------------
# Malformed input: one request per way a request can be malformed
# ---------------------------------------------------------------------------
MALFORMED = {
    "content-length-over-limit": (
        b"POST /jobs HTTP/1.1\r\nContent-Length: 8388609\r\n\r\n"
    ),
    "content-length-negative": b"POST /jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
    "content-length-not-a-number": (
        b"POST /jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
    ),
    "body-shorter-than-declared": post("/jobs", b'{"kind": "campaign"}', length=100),
    "kind-list": post("/jobs", {**ENVELOPE, "kind": ["campaign"]}),
    "suite-list": post(
        "/jobs", {**ENVELOPE, "attacks": [{"suite": ["branch-flip"]}]}
    ),
    "args-string": post("/jobs", {**ENVELOPE, "args": "abc"}),
    "attacks-number": post("/jobs", {**ENVELOPE, "attacks": 5}),
    "attack-kwargs-list": post(
        "/jobs", {**ENVELOPE, "attacks": [{"suite": "branch-flip", "kwargs": [1]}]}
    ),
    "initializers-string": post("/jobs", {**ENVELOPE, "initializers": "ab"}),
    "initializers-triple": post("/jobs", {**ENVELOPE, "initializers": [[1, 2, 3]]}),
    "lease-ttl-string": post("/fleet/lease", {"worker": "w", "ttl": "abc"}),
    "lease-ttl-nan": post("/fleet/lease", b'{"worker": "w", "ttl": NaN}'),
    "heartbeat-ttl-string": post(
        "/fleet/shards/sh-none/heartbeat", {"worker": "w", "token": "t", "ttl": "abc"}
    ),
    "result-fault-models-number": post(
        "/fleet/shards/sh-none/result",
        {"worker": "w", "error": "boom", "fault_models": 5},
    ),
    "unparsable-request-line": b"NONSENSE\r\n\r\n",
    # Ambiguous framing (RFC 9112 sections 5 and 6.3).
    "content-length-conflict": (
        b"POST /fleet/lease HTTP/1.1\r\nContent-Length: 15\r\nContent-Length: 3\r\n"
        b'\r\n{"worker": "w"}'
    ),
    "obs-fold-continuation": (
        b"GET /status HTTP/1.1\r\nHost: test\r\n X-Folded: value\r\n\r\n"
    ),
    "header-without-colon": b"GET /status HTTP/1.1\r\nHost test\r\n\r\n",
}

#: A shard payload as ``CampaignJob.run_shard`` returns it.
SHARD_PAYLOAD = {
    "shard": "sh-none", "attack": "branch-flip", "index": 0, "scheme": "none",
    "result": {},
}


class TestMalformedInput:
    @pytest.mark.parametrize("request_bytes", MALFORMED.values(), ids=MALFORMED)
    def test_answers_structured_400(self, service, request_bytes):
        assert assert_json_4xx(raw_exchange(service.address, request_bytes)) == 400
        assert service.client().service_status()["service"] == "repro.service"


def status_request(header_lines):
    return b"GET /status HTTP/1.1\r\n" + b"".join(header_lines) + b"\r\n"


class TestHeadLimits:
    """The stdlib's limits, kept: 100 header lines and 65,536-byte lines
    (line end included) are read; one more answers 431."""

    @pytest.mark.parametrize("count", [99, 100])
    def test_up_to_100_header_lines_are_read(self, service, count):
        lines = [b"X-Header-%d: v\r\n" % n for n in range(count)]
        status_line, _, body = raw_exchange(service.address, status_request(lines))
        assert status_line.split()[1] == "200"
        assert json.loads(body)["service"] == "repro.service"

    def test_101_header_lines_answer_431(self, service):
        lines = [b"X-Header-%d: v\r\n" % n for n in range(101)]
        reply = raw_exchange(service.address, status_request(lines))
        assert assert_json_4xx(reply) == 431

    def long_line(self, size):
        line = b"X-Long: " + b"a" * (size - len(b"X-Long: \r\n")) + b"\r\n"
        assert len(line) == size
        return line

    def test_a_65536_byte_header_line_is_read(self, service):
        request = status_request([self.long_line(65536)])
        status_line, _, _ = raw_exchange(service.address, request)
        assert status_line.split()[1] == "200"

    def test_a_65537_byte_header_line_answers_431(self, service):
        reply = raw_exchange(service.address, status_request([self.long_line(65537)]))
        assert assert_json_4xx(reply) == 431


class TestExpectContinue:
    def test_the_interim_100_leaves_before_the_body(self, service):
        # A client that waits for "100 Continue" before sending its body
        # must not sit out its expect timeout (curl's is 1 s).
        body = json.dumps({"job": quick_job((21, 22)).to_dict()}).encode()
        head = (
            "POST /jobs HTTP/1.1\r\nHost: test\r\nExpect: 100-continue\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode()
        with socket.create_connection(service.address, timeout=1.0) as sock:
            sock.sendall(head)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                byte = sock.recv(1)  # times out after 1 s
                assert byte, f"connection closed after {interim!r}"
                interim += byte
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.settimeout(30.0)
            sock.sendall(body)
            status_line, headers, reply = read_reply(sock)
        assert status_line.split()[1] == "202"
        assert "connection" not in headers
        assert json.loads(reply)["job_id"] == quick_job((21, 22)).job_id()


# ---------------------------------------------------------------------------
# Fleet input: worker ids and shard payloads
# ---------------------------------------------------------------------------
class TestFleetInput:
    @pytest.mark.parametrize("route", ["heartbeat", "result"])
    @pytest.mark.parametrize("worker", ["missing", "", 7, None, ["w"]])
    def test_worker_must_be_a_nonempty_string(self, service, route, worker):
        # An empty id used to register as an active worker, which pauses
        # the local runner threads for a lease TTL.
        body = {"token": "t", "error": "boom"}
        if worker != "missing":
            body["worker"] = worker
        request = post(f"/fleet/shards/sh-none/{route}", body)
        assert assert_json_4xx(raw_exchange(service.address, request)) == 400
        assert service.fleet.status()["workers"] == []

    @pytest.mark.parametrize(
        "field,value",
        [(name, None) for name in SHARD_PAYLOAD]
        + [("shard", 5), ("attack", []), ("index", "0"), ("index", True),
           ("scheme", {}), ("result", [])],
    )
    def test_shard_payload_fields_are_checked(self, service, field, value):
        payload = dict(SHARD_PAYLOAD)
        if value is None:
            del payload[field]
        else:
            payload[field] = value
        request = post(
            "/fleet/shards/sh-none/result", {"worker": "w", "result": payload}
        )
        assert assert_json_4xx(raw_exchange(service.address, request)) == 400

    def test_unmergeable_last_shard_fails_the_job(self):
        # A payload the HTTP boundary would refuse, handed straight to the
        # coordinator: the merge error must fail the job through on_done,
        # not escape with the job closed and never reported.
        from repro.service.fleet import FleetCoordinator
        from repro.toolchain import Workbench

        job = CampaignJob(
            source=load_source("integer_compare"),
            function="integer_compare",
            args=(1, 2),
            config=CompileConfig(scheme="none"),
            attacks=(AttackSpec.make("branch-flip", max_branches=1),),
        )
        coordinator = FleetCoordinator(lease_ttl=30.0)
        assert coordinator.lease("w1") is None  # register before the job
        done = []
        coordinator.add_job(job, on_done=lambda payload, error: done.append(error))
        leased = coordinator.lease("w1")
        payload = job.run_shard(Workbench(), leased["attack_index"])
        del payload["scheme"]
        ack = coordinator.submit_result(
            leased["shard_id"], "w1", payload=payload, token=leased["token"]
        )
        assert ack == {"accepted": True, "duplicate": False}
        assert len(done) == 1 and isinstance(done[0], KeyError)
        assert coordinator.status()["jobs"] == 0


# ---------------------------------------------------------------------------
# Generated malformed bodies for every POST route
# ---------------------------------------------------------------------------
JSON_TYPES = {
    "string": st.text(max_size=8),
    "number": st.integers() | st.floats(allow_nan=False, allow_infinity=False),
    "boolean": st.booleans(),
    "null": st.none(),
    "array": st.lists(st.integers(), max_size=3),
    "object": st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
}

#: route -> (a valid body, {field: the JSON types the field accepts}).
#: Fields that accept any type (the fleet's token ids) are left out: no
#: replacement can make them invalid.
ROUTES = {
    "/jobs": (
        ENVELOPE,
        {
            "version": {"number"},
            "kind": {"string"},
            "title": {"string"},
            "source": {"string"},
            "function": {"string"},
            "args": {"array"},
            "config": {"object"},
            "attacks": {"array"},
            "initializers": {"array"},
        },
    ),
    "/fleet/lease": (
        {"worker": "fuzz", "ttl": 1.0, "request": "r-1"},
        {"worker": {"string"}, "ttl": {"number", "null"}, "request": {"string", "null"}},
    ),
    "/fleet/shards/sh-fuzz/heartbeat": (
        {"worker": "fuzz", "token": "t", "ttl": 1.0, "metrics": {}},
        {"worker": {"string"}, "ttl": {"number", "null"}, "metrics": {"object", "null"}},
    ),
    "/fleet/shards/sh-fuzz/result": (
        {"worker": "fuzz", "token": "t", "result": SHARD_PAYLOAD, "fault_models": []},
        {"worker": {"string"}, "result": {"object"}, "fault_models": {"array", "null"}},
    ),
}


@st.composite
def retyped_field(draw):
    """A valid body with one field replaced by a value of a JSON type the
    field does not accept."""
    path = draw(st.sampled_from(sorted(ROUTES)))
    body, fields = ROUTES[path]
    name = draw(st.sampled_from(sorted(fields)))
    json_type = draw(st.sampled_from(sorted(set(JSON_TYPES) - fields[name])))
    return post(path, {**body, name: draw(JSON_TYPES[json_type])})


@st.composite
def non_object(draw):
    path = draw(st.sampled_from(sorted(ROUTES)))
    json_type = draw(st.sampled_from(sorted(set(JSON_TYPES) - {"object"})))
    return post(path, draw(JSON_TYPES[json_type]))


@st.composite
def invalid_utf8(draw):
    path = draw(st.sampled_from(sorted(ROUTES)))
    return post(path, draw(st.binary(max_size=8)) + b"\xff" + draw(st.binary(max_size=8)))


@st.composite
def length_mismatch(draw):
    """A valid body under a ``Content-Length`` too long (the body ends
    early) or too short (the JSON is cut off)."""
    path = draw(st.sampled_from(sorted(ROUTES)))
    body = json.dumps(ROUTES[path][0]).encode()
    length = draw(
        st.integers(1, len(body) - 1) | st.integers(len(body) + 1, 2 * len(body))
    )
    return post(path, body, length=length)


class TestGeneratedBodies:
    @settings(max_examples=100, deadline=None)
    @given(
        request_bytes=st.one_of(
            retyped_field(), non_object(), invalid_utf8(), length_mismatch()
        )
    )
    def test_every_malformed_body_gets_a_structured_4xx(self, service, request_bytes):
        for second in (False, True):
            assert_json_4xx(raw_exchange(service.address, request_bytes, second=second))
        assert service.client().service_status()["service"] == "repro.service"


# ---------------------------------------------------------------------------
# Keep-alive: one connection per client thread
# ---------------------------------------------------------------------------
@pytest.fixture
def accepts(monkeypatch):
    """The client address of every connection the service accepts."""
    accepted = []
    original = ServiceServer.process_request

    def counting(server, request, client_address):
        accepted.append(client_address)
        original(server, request, client_address)

    monkeypatch.setattr(ServiceServer, "process_request", counting)
    return accepted


class TestKeepAlive:
    def test_one_client_opens_one_connection(self, accepts):
        with BackgroundService(runners=1) as svc, svc.client(retry=NO_RETRY) as client:
            for n in range(10):
                job = quick_job((n, 100 + n))
                client.submit(job)
                client.wait(job.job_id())
                assert client.results(job.job_id())["job_id"] == job.job_id()
                assert client.map(job.job_id())["job_id"] == job.job_id()
        assert len(accepts) == 1

    @pytest.mark.parametrize("trial_workers", [0, 2])
    def test_a_request_after_the_idle_close_goes_out_again(
        self, monkeypatch, capsys, accepts, trial_workers
    ):
        # Trial workers fork while the connection is open, so each holds
        # a duplicate of both of its ends.
        monkeypatch.setattr(repro.service.http, "IDLE_TIMEOUT_S", 0.3)
        job = quick_job((7, 8))
        with BackgroundService(runners=1, trial_workers=trial_workers) as svc:
            with svc.client(timeout=20.0, retry=NO_RETRY) as client:
                client.submit(job)
                client.wait(job.job_id())
                time.sleep(1.0)  # the server closes the idle connection
                start = time.monotonic()
                assert client.results(job.job_id())["job_id"] == job.job_id()
                assert time.monotonic() - start < 5.0
        assert len(accepts) == 2
        assert "timed out" not in capsys.readouterr().err  # a routine close

    def test_a_success_leaves_the_connection_open(self, service):
        with socket.create_connection(service.address, timeout=10) as sock:
            for _ in range(3):
                sock.sendall(STATUS_REQUEST)
                status_line, headers, body = read_reply(sock)
                assert status_line.split()[1] == "200"
                assert "connection" not in headers
                assert json.loads(body)["service"] == "repro.service"

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /status HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
            b"GET /status HTTP/1.0\r\n\r\n",
            b"GET /status HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        ],
        ids=["connection-close", "http-1.0", "http-1.0-keep-alive"],
    )
    def test_a_client_that_closes_gets_a_closed_connection(
        self, service, request_bytes
    ):
        with socket.create_connection(service.address, timeout=10) as sock:
            sock.sendall(request_bytes)
            status_line, headers, _ = read_reply(sock)
            assert status_line.split()[1] == "200"
            assert headers["connection"] == "close"
            assert sock.recv(1) == b""  # closed by the server, not timed out

    def test_a_chunked_body_gets_a_json_4xx_and_a_closed_connection(self, service):
        request = (
            b"POST /jobs HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n"
            b"\r\n5\r\nhello\r\n0\r\n\r\n"
        )
        for second in (False, True):
            reply = raw_exchange(service.address, request, second=second)
            assert assert_json_4xx(reply) == 400
            assert "Transfer-Encoding" in json.loads(reply[2])["error"]

    def test_the_event_stream_closes_its_connection(self, service):
        job = quick_job((9, 9))
        with service.client() as client:
            client.run(job)
        request = f"GET /jobs/{job.job_id()}/events HTTP/1.1\r\nHost: test\r\n\r\n"
        with socket.create_connection(service.address, timeout=10) as sock:
            sock.sendall(request.encode())
            chunks = []
            while chunk := sock.recv(65536):  # ends: the server closed
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        status_line, headers = parse_head(head)
        assert status_line.split()[1] == "200"
        assert headers["connection"] == "close"
        assert "content-length" not in headers
        assert json.loads(body.splitlines()[-1])["event"] == "finished"


# ---------------------------------------------------------------------------
# The commit thread under concurrent load
# ---------------------------------------------------------------------------
def read_stream(address, job_id, at_terminal, timeout=120.0):
    """Every line of a job's event stream, read to EOF (not just to the
    first terminal event, as ServiceClient.stream does), and what
    ``at_terminal()`` returned the moment a terminal event arrived."""
    connection = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        connection.request("GET", f"/jobs/{job_id}/events")
        response = connection.getresponse()
        assert response.status == 200
        events, observed = [], None
        for line in response:
            events.append(json.loads(line))
            if events[-1]["event"] in TERMINAL and observed is None:
                observed = at_terminal()
        return events, observed
    finally:
        connection.close()


@pytest.fixture
def fast_switching():
    """Hand the interpreter lock between threads as often as possible, so
    thread interleavings the commit thread must order actually occur."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def service_threads():
    return {t for t in threading.enumerate() if t is not threading.current_thread()}


def assert_threads_end(before, timeout=30.0):
    deadline = time.monotonic() + timeout
    while service_threads() - before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not {t.name for t in service_threads() - before}


class TestCommitThread:
    CLIENTS = 12
    JOBS_PER_CLIENT = 10

    def test_streams_status_and_store_agree(self, fast_switching):
        rng = random.Random(14)
        plans = [
            [
                (quick_job((client, n), scheme="none" if n % 2 else "ancode"),
                 rng.random() < 0.3)
                for n in range(self.JOBS_PER_CLIENT)
            ]
            for client in range(self.CLIENTS)
        ]
        seen: dict[str, tuple] = {}
        errors = []
        before = service_threads()
        with BackgroundService(runners=2) as svc:

            def client_thread(plan):
                client = svc.client(timeout=120.0)
                try:
                    for job, cancel in plan:
                        job_id = client.submit(job)["job_id"]
                        if cancel:
                            client.cancel(job_id)
                        seen[job_id] = read_stream(
                            svc.address,
                            job_id,
                            lambda: (
                                svc.scheduler.store.events(job_id),
                                client.status(job_id)["state"],
                            ),
                        )
                except Exception as exc:  # noqa: BLE001 — reported below
                    errors.append(exc)

            threads = [
                threading.Thread(target=client_thread, args=(plan,)) for plan in plans
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not [t for t in threads if t.is_alive()], "a client hung"
        assert not errors, errors
        assert len(seen) == self.CLIENTS * self.JOBS_PER_CLIENT
        cancelled = 0
        for job_id, (events, (persisted, state)) in seen.items():
            kinds = [event["event"] for event in events]
            assert kinds[0] == "queued", (job_id, kinds)
            assert [k for k in kinds if k in TERMINAL] == kinds[-1:], (job_id, kinds)
            assert state == TERMINAL[kinds[-1]], (job_id, kinds, state)
            assert persisted == [
                event for event in events if event["event"] in PERSISTED_EVENTS
            ], job_id
            cancelled += kinds[-1] == "cancelled"
        assert cancelled > 0
        assert_threads_end(before)

    def test_close_ends_streams_and_waiters_of_unfinished_jobs(self):
        job = quick_job((40, 41))
        before = service_threads()
        streamed, outcome = [], {}
        with BackgroundService(runners=1, lease_ttl=30.0) as svc:
            client = svc.client(retry=NO_RETRY)
            client.fleet_lease("w1")  # an active worker: runner threads idle
            client.submit(job)  # ... and it never leases the job

            def stream():
                connection = http.client.HTTPConnection(*svc.address, timeout=60)
                connection.request("GET", f"/jobs/{job.job_id()}/events")
                for line in connection.getresponse():
                    streamed.append(json.loads(line)["event"])
                connection.close()

            def wait_result():
                try:
                    client.results(job.job_id(), wait=True)
                except ServiceError as exc:
                    outcome["result"] = exc.status

            def wait_status():
                try:
                    client.wait(job.job_id())
                except ServiceError as exc:
                    outcome["wait"] = exc.status

            readers = [
                threading.Thread(target=wait_result),
                threading.Thread(target=wait_status),
                threading.Thread(target=stream),
            ]
            for reader in readers:
                reader.start()
            deadline = time.monotonic() + 30
            while not streamed and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.5)  # both requests are blocked on the job now
        for reader in readers:
            reader.join(timeout=30)
        assert not [reader for reader in readers if reader.is_alive()]
        assert streamed == ["queued"]
        assert outcome == {"result": 503, "wait": 503}
        assert_threads_end(before)
