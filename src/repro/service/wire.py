"""HTTP/1.1 message heads, read and written without the ``email`` package.

Both ends of the service use this module: the server's request handler
(:mod:`repro.service.http`) and :class:`~repro.service.client.
ServiceClient`.  A head is a start line (``GET /status HTTP/1.1`` or
``HTTP/1.1 200 OK``) and header lines up to a blank line.

:func:`read_head` reads one off a buffered binary file (a socket's
``makefile("rb")``) into a dict keyed by lower-case header name.  A name
given twice keeps its first value, as ``http.client.parse_headers(...)
.get(name)`` does, and values are left-stripped of spaces and tabs, as
there.  The limits are the stdlib's: a line over :data:`MAX_LINE` bytes
(line end included) or more than :data:`MAX_HEADERS` header lines is a
431.  Heads whose framing is ambiguous are a 400: a header line without
a colon or with a name that is empty or holds whitespace (which covers
a continuation line: it starts with a space or a tab, and RFC 9112
section 5.2 obsoletes line folding), and two ``Content-Length`` headers
with different values.

:func:`head_bytes` renders a head as one bytes object.
"""

from __future__ import annotations

from typing import BinaryIO, Iterable

#: Longest accepted head line in bytes, its line end included.
MAX_LINE = 65536

#: Most header lines accepted in one head (the blank line not counted).
MAX_HEADERS = 100

_END = (b"\r\n", b"\n", b"")


class HeadError(Exception):
    """A head the reader refuses; ``status`` is the answer a server
    gives it (400 or 431; a client that cannot parse a response head
    raises it with 502, what a gateway would answer)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _read_line(rfile: BinaryIO) -> bytes:
    """One head line, line end included (``b""`` at the end of input)."""
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise HeadError(431, "Line too long")
    return line


def read_headers(rfile: BinaryIO) -> dict[str, str]:
    """The header lines up to and including the blank line that ends
    them (or the end of input), as ``{lower-case name: first value}``."""
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = _read_line(rfile)
        if line in _END:
            return headers
        name, colon, value = line.partition(b":")
        if not colon or name.split() != [name]:  # a fold starts with whitespace
            raise HeadError(400, f"malformed header line {line[:80]!r}")
        key = name.decode("latin-1").lower()
        text = value.lstrip(b" \t").rstrip(b"\r\n").decode("latin-1")
        first = headers.setdefault(key, text)
        if key == "content-length" and first.strip() != text.strip():
            raise HeadError(400, "conflicting Content-Length headers")
    raise HeadError(431, "Too many headers")


def read_head(rfile: BinaryIO) -> tuple[str, dict[str, str]]:
    """A whole head: its start line without the line end (``""`` at the
    end of input), and its headers as :func:`read_headers` returns them."""
    start = _read_line(rfile).rstrip(b"\r\n").decode("latin-1")
    return start, read_headers(rfile) if start else {}


def head_bytes(start: str, headers: Iterable[tuple[str, str]]) -> bytes:
    """The start line, the headers in order and the blank line."""
    lines = [start, *(f"{name}: {value}" for name, value in headers), "", ""]
    return "\r\n".join(lines).encode("latin-1")
