"""``POST /ingest`` over arbitrary bodies, and CSV against JSONL.

Any body answers 200 or 400 (a 500 is a bug), a 400 leaves the daemon
as it was, and the same rows sent as a CSV body and as a JSONL body are
accepted or refused alike: same status, same row count, same refused
row, same fed flows.
"""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.manager import FleetManager
from repro.flows.table import ALL_COLUMNS, FlowTable
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.service.app import ServiceApp
from repro.service.protocol import HttpRequest

HEADER = ",".join(ALL_COLUMNS)


def post(app: ServiceApp, fmt: str, body: bytes) -> tuple[int, dict]:
    status, payload, _ = app.handle(HttpRequest(
        method="POST", target="/ingest", path="/ingest",
        query={"format": fmt}, headers={}, body=body,
    ))
    return status, json.loads(payload)


class Recorder:
    """Stands in for the fleet: keeps every chunk ingest feeds it."""

    names = ()
    tracer = NULL_TRACER

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.fed: list[FlowTable] = []

    def feed(self, chunk: FlowTable, pipeline: str | None = None) -> None:
        self.fed.append(chunk)


@pytest.fixture(scope="module")
def daemon(service_config):
    fleet = FleetManager(
        {"linkA": service_config, "linkB": service_config},
        route="dst_ip%2",
        interval_seconds=10.0,
    )
    yield ServiceApp(fleet)
    fleet.close()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@settings(max_examples=300, deadline=None)
@given(body=st.one_of(
    st.binary(max_size=300),
    st.text(max_size=300).map(lambda text: f"{HEADER}\n{text}".encode()),
))
def test_any_body_is_answered_200_or_400(daemon, fmt, body):
    before = (daemon.sequence, daemon.health()["pipelines"])
    status, _ = post(daemon, fmt, body)
    assert status in (200, 400)
    if status == 400:
        assert before == (daemon.sequence, daemon.health()["pipelines"])


#: Cells no column holds, or not as an integer: negatives, past
#: 2**32 / 2**63 / 2**64, fractions, NaN and the infinities.
WILD = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([-1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64]),
    st.floats(),
)


@st.composite
def rows(draw) -> list[int | float]:
    """A row every column accepts, now and then with one wild cell."""
    row = [draw(st.integers(0, 255)) for _ in ALL_COLUMNS]
    row[ALL_COLUMNS.index("start")] = draw(st.floats(0, 1e6))
    row[ALL_COLUMNS.index("label")] = draw(st.integers(-1, 2))
    if draw(st.booleans()):
        row[draw(st.integers(0, len(row) - 1))] = draw(WILD)
    return row


def csv_body(body: list) -> bytes:
    lines = [HEADER] + [
        "" if row is None
        else ",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
        for row in body
    ]
    return "\n".join(lines).encode() + b"\n"


def jsonl_body(body: list, drop_baseline: bool) -> bytes:
    """One object per row; ``drop_baseline`` omits a -1 label, which
    must mean the same."""
    lines = []
    for row in body:
        record = None if row is None else dict(zip(ALL_COLUMNS, row))
        if drop_baseline and record and record["label"] == -1:
            del record["label"]
        lines.append("" if record is None else json.dumps(record))
    return "\n".join(lines).encode() + b"\n"


def refused_line(payload: dict) -> int:
    return int(re.match(r"ingest:(\d+): ", payload["error"])[1])


@settings(max_examples=150, deadline=None)
@given(
    body=st.lists(st.one_of(rows(), st.none()), max_size=8),
    chunk_rows=st.integers(1, 4),
    drop_baseline=st.booleans(),
)
def test_csv_and_jsonl_bodies_decode_alike(body, chunk_rows, drop_baseline):
    csv_app = ServiceApp(Recorder(), chunk_rows=chunk_rows)
    jsonl_app = ServiceApp(Recorder(), chunk_rows=chunk_rows)
    csv_status, csv_payload = post(csv_app, "csv", csv_body(body))
    jsonl_status, jsonl_payload = post(
        jsonl_app, "jsonl", jsonl_body(body, drop_baseline)
    )
    assert csv_status == jsonl_status
    if csv_status == 400:
        # The CSV body's header is its line 1.
        assert refused_line(csv_payload) == refused_line(jsonl_payload) + 1
        assert csv_app.fleet.fed == jsonl_app.fleet.fed == []
        return
    assert csv_status == 200
    assert csv_payload["rows"] == jsonl_payload["rows"]
    assert FlowTable.concat(csv_app.fleet.fed) == FlowTable.concat(
        jsonl_app.fleet.fed
    )


def test_omitted_label_feeds_the_baseline():
    """A label-less JSONL body feeds the table its CSV twin with
    ``-1`` feeds (it used to feed label 0: anomalous)."""
    body = [[1, 2, 3, 4, 6, 1, 40, 0.5, -1], [5, 6, 7, 8, 17, 2, 80, 1.5, -1]]
    csv_app, jsonl_app = ServiceApp(Recorder()), ServiceApp(Recorder())
    assert post(csv_app, "csv", csv_body(body))[0] == 200
    assert post(jsonl_app, "jsonl", jsonl_body(body, drop_baseline=True))[0] == 200
    assert b"label" not in jsonl_body(body, drop_baseline=True)
    (fed,) = jsonl_app.fleet.fed
    assert fed == FlowTable.concat(csv_app.fleet.fed)
    assert fed.label.tolist() == [-1, -1]
