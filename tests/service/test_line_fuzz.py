"""The TCP line port over arbitrary bytes.

Bytes - real rows, random bytes, bare CRs, invalid UTF-8, blank lines
and lines at and past :data:`LINE_LIMIT` - go through
``ServiceSupervisor._serve_ingest`` on an ``asyncio.StreamReader``.
Every batch is answered exactly once, ``ok <rows> <sequence>`` or
``err <message>``, and an ``err`` leaves the fleet's resume state and
the sequence as they were before that batch.
"""

from __future__ import annotations

import asyncio
import os
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.manager import FleetManager
from repro.flows.io import write_csv
from repro.service.app import ServiceApp
from repro.service.supervisor import LINE_LIMIT, ServiceSupervisor
from repro.state import canonical_json


class Wire:
    """Stands in for the connection's writer: records every write with
    the fleet's state and sequence at that moment."""

    def __init__(self, app: ServiceApp):
        self.app = app
        self.writes: list[tuple[bytes, str, int]] = []
        self.closed = False

    def snapshot(self) -> tuple[str, int]:
        return canonical_json(self.app.fleet.to_state()), self.app.sequence

    def write(self, data: bytes) -> None:
        self.writes.append((data, *self.snapshot()))

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True

    async def wait_closed(self) -> None:
        pass


def batches(data: bytes, chunk_rows: int) -> tuple[list[list[str]], bool]:
    """The batches ``_serve_ingest`` cuts from ``data`` read whole, and
    whether a line past ``LINE_LIMIT`` cut the stream short."""
    lines: list[str] = []
    pos = 0
    while pos < len(data):
        end = data.find(b"\n", pos)
        end = len(data) if end == -1 else end
        if end - pos > LINE_LIMIT:
            break
        text = data[pos:end].decode("utf-8", errors="replace").strip()
        if text:
            lines.append(text)
        pos = end + 1
    cut = [lines[i:i + chunk_rows] for i in range(0, len(lines), chunk_rows)]
    if pos < len(data):
        # The over-long line drops the batch it would have joined.
        if cut and len(cut[-1]) < chunk_rows:
            cut.pop()
        return cut, True
    return cut, False


def serve(app: ServiceApp, data: bytes) -> Wire:
    async def run() -> Wire:
        reader = asyncio.StreamReader(limit=LINE_LIMIT)
        reader.feed_data(data)
        reader.feed_eof()
        wire = Wire(app)
        await ServiceSupervisor(app)._serve_ingest(reader, wire)
        return wire

    return asyncio.run(run())


TOKENS = st.sampled_from([b"\r", b"\r\n", b"\n", b"\xff\xfe", b"\xc3", b" ", b""])
OVERLONG = st.integers(LINE_LIMIT - 2, LINE_LIMIT + 2).map(lambda n: b"7" * n)


@st.composite
def streams(draw, rows: list[bytes]) -> bytes:
    segments = draw(st.lists(
        st.one_of(st.sampled_from(rows), st.binary(max_size=40), TOKENS, OVERLONG),
        max_size=10,
    ))
    return draw(st.sampled_from([b"\n", b"\r\n", b""])).join(segments)


def test_every_batch_is_answered_once_and_err_feeds_nothing(
    service_config, service_chunks, tmp_path_factory
):
    path = os.path.join(tmp_path_factory.mktemp("line-fuzz"), "rows.csv")
    write_csv(service_chunks[0], path)
    with open(path, "rb") as handle:
        rows = handle.read().splitlines()[1:40]

    @settings(max_examples=200, deadline=None)
    @given(data=streams(rows), chunk_rows=st.integers(1, 4))
    def check(data: bytes, chunk_rows: int) -> None:
        fleet = FleetManager(
            {"linkA": service_config, "linkB": service_config},
            route="dst_ip%2",
            interval_seconds=10.0,
        )
        try:
            app = ServiceApp(fleet, chunk_rows=chunk_rows)
            expected, overrun = batches(data, chunk_rows)
            before = Wire(app).snapshot()
            wire = serve(app, data)
        finally:
            fleet.close()
        assert wire.closed
        assert len(wire.writes) == len(expected) + overrun
        for i, (reply, *state) in enumerate(wire.writes):
            after = tuple(state)
            assert reply.endswith(b"\n") and reply.count(b"\n") == 1
            if ok := re.fullmatch(rb"ok (\d+) (\d+)\n", reply):
                assert int(ok[1]) == len(expected[i])
                assert int(ok[2]) == before[1] + 1 == after[1]
            else:
                assert reply.startswith(b"err ")
                assert after == before
            before = after
        if overrun:
            assert wire.writes[-1][0].startswith(
                f"err line longer than {LINE_LIMIT} bytes".encode()
            )

    check()
