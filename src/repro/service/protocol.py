"""A minimal HTTP/1.1 server protocol over asyncio streams.

The daemon must not depend on a web framework (the toolchain is
stdlib + numpy only), and its HTTP needs are tiny: five routes, small
JSON or text bodies, one request per connection.  This module parses
exactly that - request line, headers, ``Content-Length`` body - and
renders ``Connection: close`` responses.  Anything outside the
supported subset (chunked bodies, upgrades, absurd header blocks)
raises :class:`~repro.errors.ServiceError`, which the dispatcher maps
to a 400.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from urllib.parse import parse_qsl, urlsplit

from repro.errors import ServiceError

#: Largest accepted header block (request line included) - far above
#: anything a legitimate client sends, small enough that a garbage
#: stream cannot balloon memory.
MAX_HEADER_BYTES = 64 * 1024

_STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


@dataclass(frozen=True)
class HttpRequest:
    """One parsed request: method, split target, headers, raw body."""

    method: str
    target: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes


async def _readline(reader: asyncio.StreamReader) -> bytes:
    """One header line; the reader's own line-length limit (64 KiB by
    default) surfaces as a ``ValueError``, which must map to a 400, not
    crash the connection handler."""
    try:
        return await reader.readline()
    except ValueError as exc:
        raise ServiceError(f"header line too long: {exc}") from exc


async def read_request(
    reader: asyncio.StreamReader, max_body: int
) -> HttpRequest | None:
    """Parse one request from ``reader``; ``None`` on clean EOF.

    Header names are lower-cased; the query string is decoded into a
    plain dict (last value wins - none of the daemon's parameters
    repeat).  Bodies larger than ``max_body`` are refused before a
    single body byte is read.
    """
    request_line = await _readline(reader)
    if not request_line:
        return None
    if len(request_line) > MAX_HEADER_BYTES:
        raise ServiceError("request line too long")
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise ServiceError(
            f"malformed request line: {request_line.decode('latin-1')!r}"
        )
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise ServiceError(f"unsupported protocol version {version!r}")
    headers: dict[str, str] = {}
    header_bytes = len(request_line)
    while True:
        line = await _readline(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise ServiceError("header block too large")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ServiceError(f"malformed header line: {line!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise ServiceError(
                f"conflicting Content-Length headers {headers[name]!r} "
                f"and {value!r}"
            )
        headers[name] = value
    if "transfer-encoding" in headers:
        raise ServiceError(
            "chunked transfer encoding is not supported; send a "
            "Content-Length body"
        )
    length_text = headers.get("content-length", "0")
    # RFC 9110 8.6: 1*DIGIT - no sign, no underscores, no whitespace.
    # int() still refuses a digit string past sys.get_int_max_str_digits().
    try:
        if not (length_text.isascii() and length_text.isdigit()):
            raise ValueError(length_text)
        length = int(length_text)
    except ValueError:
        raise ServiceError(
            f"malformed Content-Length {length_text[:32]!r}: want a "
            f"non-negative decimal integer"
        ) from None
    if length > max_body:
        raise ServiceError(
            f"request body of {length} bytes exceeds the configured "
            f"max_body_bytes ({max_body})"
        )
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ServiceError(
                f"connection closed {length - len(exc.partial)} bytes "
                f"short of the declared Content-Length"
            ) from exc
    else:
        body = b""
    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return HttpRequest(
        method=method.upper(),
        target=target,
        path=split.path,
        query=query,
        headers=headers,
        body=body,
    )


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
) -> bytes:
    """Render one complete ``Connection: close`` HTTP/1.1 response."""
    phrase = _STATUS_PHRASES.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {phrase}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body
