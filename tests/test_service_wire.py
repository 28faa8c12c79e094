"""The HTTP/1.1 head reader both ends of the service share
(``repro.service.wire``), against the stdlib parsers as its oracle: the
reader returns what ``http.client.parse_headers(...).get(name)`` returns,
the server writes the response heads the stdlib's ``send_header`` calls
wrote, no served request reaches the ``email`` package, and
``ServiceClient`` frames kept-alive exchanges by ``Content-Length`` and
``Connection: close``.
"""

import contextlib
import email.feedparser
import http.client
import io
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.programs import load_source
from repro.service import BackgroundService, wire
from repro.service.client import NO_RETRY, ServiceClient
from repro.service.http import _Handler
from repro.service.jobs import AttackSpec, CampaignJob
from repro.toolchain import CompileConfig

#: A socket left to the garbage collector fails the test that dropped it.
pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)

#: Header names the generated heads draw from: few enough to repeat.
NAMES = ("Content-Length", "Content-Type", "Connection", "Retry-After", "X-Job")

#: Printable latin-1: heads are decoded as latin-1 on both ends.
VALUE_CHARS = st.characters(codec="latin-1", exclude_categories=("Cc",))


@st.composite
def head_blocks(draw):
    """``(start line, header block, [(name, value), ...])``: a request or
    response head with names in random case, optional whitespace around
    values, repeated names, empty values and mixed line ends."""
    start = draw(st.sampled_from(["POST /jobs HTTP/1.1", "HTTP/1.1 200 OK"]))
    fields = []
    lines = [start.encode() + draw(st.sampled_from([b"\r\n", b"\n"]))]
    for _ in range(draw(st.integers(0, 12))):
        name = draw(st.sampled_from(NAMES))
        upper = draw(st.lists(st.booleans(), min_size=len(name), max_size=len(name)))
        name = "".join(c.upper() if up else c.lower() for c, up in zip(name, upper))
        value = draw(st.text(VALUE_CHARS, max_size=10))
        before = draw(st.sampled_from(["", " ", "  ", "\t", " \t"]))
        after = draw(st.sampled_from(["", " ", "\t"]))
        end = draw(st.sampled_from(["\r\n", "\n"]))
        fields.append((name, value))
        lines.append(f"{name}:{before}{value}{after}{end}".encode("latin-1"))
    lines.append(draw(st.sampled_from([b"\r\n", b"\n"])))
    return start, b"".join(lines), fields


class TestReadHead:
    @settings(max_examples=300, deadline=None)
    @given(head=head_blocks())
    def test_agrees_with_the_stdlib_parser(self, head):
        start, block, fields = head
        oracle_file = io.BytesIO(block)
        oracle_file.readline()  # the start line
        oracle = http.client.parse_headers(oracle_file)
        rfile = io.BytesIO(block + b"body")
        lengths = {value.strip() for value in oracle.get_all("Content-Length", [])}
        if len(lengths) > 1:  # ambiguous framing
            with pytest.raises(wire.HeadError) as excinfo:
                wire.read_head(rfile)
            assert excinfo.value.status == 400
            return
        got_start, headers = wire.read_head(rfile)
        assert got_start == start
        for name in NAMES:
            for spelling in (name, name.lower(), name.upper()):
                assert headers.get(spelling.lower()) == oracle.get(spelling), spelling
        assert set(headers) == {name.lower() for name, _ in fields}
        assert rfile.read() == b"body"  # the head is consumed, nothing after it

    @pytest.mark.parametrize(
        "line",
        [b" folded\r\n", b"\tfolded: value\r\n", b" X-Folded: value\r\n",
         b"no colon\r\n", b"Name : value\r\n", b": no name\r\n",
         b"Two Words: value\r\n", b"Tab\tName: value\r\n"],
        ids=["space-fold", "tab-fold-with-colon", "space-fold-with-colon", "no-colon",
             "space-before-colon", "empty-name", "space-in-name", "tab-in-name"],
    )
    def test_rejects_ambiguous_lines_with_400(self, line):
        block = b"GET / HTTP/1.1\r\nHost: test\r\n" + line + b"\r\n"
        with pytest.raises(wire.HeadError) as excinfo:
            wire.read_head(io.BytesIO(block))
        assert excinfo.value.status == 400

    def test_repeated_equal_content_lengths_are_one(self):
        block = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\ncontent-length:  3 \r\n\r\n"
        assert wire.read_head(io.BytesIO(block))[1] == {"content-length": "3"}

    @pytest.mark.parametrize("count,status", [(wire.MAX_HEADERS, None),
                                              (wire.MAX_HEADERS + 1, 431)])
    def test_header_count_limit(self, count, status):
        block = b"".join(b"X-%d: v\r\n" % n for n in range(count)) + b"\r\nbody"
        rfile = io.BytesIO(block)
        if status is None:
            assert len(wire.read_headers(rfile)) == count
            assert rfile.read() == b"body"
        else:
            with pytest.raises(wire.HeadError) as excinfo:
                wire.read_headers(rfile)
            assert excinfo.value.status == status

    @pytest.mark.parametrize("size,status", [(wire.MAX_LINE, None),
                                             (wire.MAX_LINE + 1, 431)])
    def test_line_length_limit(self, size, status):
        line = b"X-Long: " + b"a" * (size - len(b"X-Long: \r\n")) + b"\r\n"
        assert len(line) == size
        rfile = io.BytesIO(line + b"\r\n")
        if status is None:
            assert len(wire.read_headers(rfile)["x-long"]) == size - 10
        else:
            with pytest.raises(wire.HeadError) as excinfo:
                wire.read_headers(rfile)
            assert excinfo.value.status == status

    def test_end_of_input(self):
        assert wire.read_head(io.BytesIO(b"")) == ("", {})
        # A head cut off by the end of input ends there, as in the stdlib.
        assert wire.read_headers(io.BytesIO(b"A: 1\r\n")) == {"a": "1"}


# ---------------------------------------------------------------------------
# Response heads: the bytes the stdlib's send_* calls wrote
# ---------------------------------------------------------------------------
def handler(request_version, close_connection):
    h = _Handler.__new__(_Handler)
    h.request_version = request_version
    h.close_connection = close_connection
    h.wfile = io.BytesIO()
    return h


def stdlib_head(h, status, content_type, headers):
    """The head as the server wrote it through ``http.server``'s calls."""
    h.send_response_only(status)
    h.send_header("Content-Type", content_type)
    for name, value in headers.items():
        h.send_header(name, value)
    keep_alive = (
        status < 400
        and "Content-Length" in headers
        and h.request_version == "HTTP/1.1"
        and not h.close_connection
    )
    if not keep_alive:
        h.send_header("Connection", "close")
    h.end_headers()
    return h.wfile.getvalue()


@pytest.mark.parametrize("status", [200, 202, 400, 404, 409, 431, 503, 599])
@pytest.mark.parametrize("request_version", ["HTTP/1.1", "HTTP/1.0", "HTTP/0.9"])
@pytest.mark.parametrize("close_connection", [False, True])
@pytest.mark.parametrize(
    "headers",
    [{"Content-Length": "17"}, {"Cache-Control": "no-store"},
     {"Content-Length": "2", "Retry-After": "1"}],
    ids=["length", "stream", "retry"],
)
def test_response_heads_keep_their_bytes(status, request_version, close_connection,
                                         headers):
    new, old = (handler(request_version, close_connection) for _ in range(2))
    assert new._head(status, "application/json", headers) == stdlib_head(
        old, status, "application/json", headers
    )
    assert new.close_connection == old.close_connection


# ---------------------------------------------------------------------------
# No served request reaches the email package
# ---------------------------------------------------------------------------
def test_served_requests_skip_the_email_package(monkeypatch):
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a head went through the email package")

    monkeypatch.setattr(http.client, "parse_headers", refuse)
    monkeypatch.setattr(email.feedparser.FeedParser, "feed", refuse)
    job = CampaignJob(
        source=load_source("integer_compare"),
        function="integer_compare",
        args=(3, 4),
        config=CompileConfig(scheme="ancode"),
        attacks=(AttackSpec.make("branch-flip", max_branches=2),),
    )
    with BackgroundService(runners=1) as svc, svc.client(retry=NO_RETRY) as client:
        assert client.submit(job)["job_id"] == job.job_id()
        assert client.wait(job.job_id())["state"] == "done"
        assert client.results(job.job_id())["job_id"] == job.job_id()
        assert client.map(job.job_id())["job_id"] == job.job_id()
        events = [event["event"] for event in client.stream(job.job_id())]
    assert events[0] == "queued" and events[-1] == "finished"
    assert calls == []


# ---------------------------------------------------------------------------
# ServiceClient framing, against a scripted server
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def scripted_server(reply: bytes):
    """A server that answers every request with ``reply`` and never closes
    a connection itself; yields ``(port, accepted connections)``."""
    listener = socket.create_server(("127.0.0.1", 0))
    accepted = []

    def serve(conn):
        with contextlib.suppress(OSError):
            buffered = b""
            while chunk := conn.recv(65536):
                buffered += chunk
                while b"\r\n\r\n" in buffered:  # the client's requests have no body
                    _, _, buffered = buffered.partition(b"\r\n\r\n")
                    conn.sendall(reply)

    def accept():
        with contextlib.suppress(OSError):
            while True:
                conn, _ = listener.accept()
                accepted.append(conn)
                threading.Thread(target=serve, args=(conn,), daemon=True).start()

    threading.Thread(target=accept, daemon=True).start()
    try:
        yield listener.getsockname()[1], accepted
    finally:
        for sock in (listener, *accepted):  # shutdown wakes the blocked threads
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
            sock.close()


def test_client_keeps_a_connection_across_exact_bodies():
    # Each body's last byte must be read, and nothing after it.
    reply = (
        b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n"
        b"CONTENT-LENGTH: 13\r\n\r\n{\"state\": 1}\n"
    )
    with scripted_server(reply) as (port, accepted):
        with ServiceClient(port=port, timeout=5.0, retry=NO_RETRY) as client:
            for _ in range(3):
                assert client.status("cj-x") == {"state": 1}
    assert len(accepted) == 1


def test_client_drops_a_connection_the_service_closes():
    # The scripted server leaves the connection open after announcing its
    # close: a client that sent its next request on it would time out.
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}"
    with scripted_server(reply) as (port, accepted):
        with ServiceClient(port=port, timeout=2.0, retry=NO_RETRY) as client:
            for _ in range(3):
                assert client.status("cj-x") == {}
    assert len(accepted) == 3
