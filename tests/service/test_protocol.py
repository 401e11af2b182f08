"""HTTP parsing/rendering unit tests (no sockets: fed StreamReaders)."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ServiceError
from repro.service.protocol import (
    MAX_HEADER_BYTES,
    read_request,
    render_response,
)


def parse(raw: bytes, max_body: int = 1 << 20):
    """Run read_request over an in-memory stream."""
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_body)

    return asyncio.run(go())


class TestReadRequest:
    def test_get_with_query(self):
        request = parse(
            b"GET /incidents?top=5&profile=balanced HTTP/1.1\r\n"
            b"Host: localhost\r\n\r\n"
        )
        assert request.method == "GET"
        assert request.path == "/incidents"
        assert request.query == {"top": "5", "profile": "balanced"}
        assert request.headers["host"] == "localhost"
        assert request.body == b""

    def test_post_with_body(self):
        request = parse(
            b"POST /ingest HTTP/1.1\r\n"
            b"Content-Length: 11\r\n\r\n"
            b"hello,world"
        )
        assert request.method == "POST"
        assert request.body == b"hello,world"

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_method_uppercased_headers_lowercased(self):
        request = parse(
            b"get /healthz HTTP/1.0\r\nX-Custom-Header: v\r\n\r\n"
        )
        assert request.method == "GET"
        assert request.headers == {"x-custom-header": "v"}

    def test_blank_query_values_kept(self):
        request = parse(b"GET /incidents?top= HTTP/1.1\r\n\r\n")
        assert request.query == {"top": ""}

    def test_malformed_request_line(self):
        with pytest.raises(ServiceError, match="malformed request line"):
            parse(b"GET/HTTP/1.1\r\n\r\n")

    def test_unsupported_protocol_version(self):
        with pytest.raises(ServiceError, match="protocol version"):
            parse(b"GET / HTTP/2\r\n\r\n")

    def test_malformed_header_line(self):
        with pytest.raises(ServiceError, match="malformed header"):
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")

    def test_chunked_transfer_rejected(self):
        with pytest.raises(ServiceError, match="chunked"):
            parse(
                b"POST /ingest HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
            )

    @pytest.mark.parametrize(
        "headers",
        [
            b"Content-Length: ten\r\n",
            b"Content-Length: 1_0\r\n",
            b"Content-Length: +3\r\n",
            b"Content-Length: 3\r\nContent-Length: 5\r\n",
            # Past int()'s digit limit: still a 400, not a raw ValueError.
            b"Content-Length: " + b"9" * 5000 + b"\r\n",
        ],
    )
    def test_malformed_content_length(self, headers):
        with pytest.raises(ServiceError, match="Content-Length"):
            parse(b"POST / HTTP/1.1\r\n" + headers + b"\r\nabcdefghij")

    def test_repeated_equal_content_length_is_one_length(self):
        request = parse(
            b"POST / HTTP/1.1\r\nContent-Length: 3\r\n"
            b"content-length: 3\r\n\r\nabc"
        )
        assert request.body == b"abc"

    def test_negative_content_length(self):
        with pytest.raises(ServiceError, match="negative"):
            parse(b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n")

    def test_oversize_body_refused_before_reading(self):
        with pytest.raises(ServiceError, match="max_body_bytes"):
            parse(
                b"POST /ingest HTTP/1.1\r\nContent-Length: 100\r\n\r\n",
                max_body=10,
            )

    def test_truncated_body(self):
        with pytest.raises(ServiceError, match="short"):
            parse(
                b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"
            )

    def test_header_block_cap(self):
        # Many individually modest lines still trip the accumulated cap.
        lines = b"".join(
            b"X-Pad-%d: %s\r\n" % (i, b"a" * 100) for i in range(700)
        )
        assert len(lines) > MAX_HEADER_BYTES
        with pytest.raises(ServiceError, match="header block"):
            parse(b"GET / HTTP/1.1\r\n" + lines + b"\r\n")

    def test_single_overlong_header_line(self):
        # One line past the StreamReader limit maps to a 400-worthy
        # ServiceError rather than crashing the connection handler.
        huge = b"X-Pad: " + b"a" * MAX_HEADER_BYTES + b"\r\n"
        with pytest.raises(ServiceError, match="too long"):
            parse(b"GET / HTTP/1.1\r\n" + huge + b"\r\n")


class TestRenderResponse:
    def test_shape(self):
        raw = render_response(200, b'{"ok": true}')
        head, _, body = raw.partition(b"\r\n\r\n")
        assert body == b'{"ok": true}'
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 200 OK"
        assert "Content-Type: application/json" in lines
        assert "Content-Length: 12" in lines
        assert "Connection: close" in lines

    def test_content_type_override(self):
        raw = render_response(200, b"# HELP", "text/plain; version=0.0.4")
        assert b"Content-Type: text/plain; version=0.0.4\r\n" in raw

    @pytest.mark.parametrize("status,phrase", [
        (400, "Bad Request"),
        (404, "Not Found"),
        (405, "Method Not Allowed"),
        (409, "Conflict"),
        (413, "Payload Too Large"),
        (500, "Internal Server Error"),
    ])
    def test_status_phrases(self, status, phrase):
        raw = render_response(status, b"{}")
        assert raw.startswith(f"HTTP/1.1 {status} {phrase}\r\n".encode())
