"""ServiceApp dispatch tests: routes, ingest formats, errors, health."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import CheckpointError, ConfigError, TraceFormatError
from repro.fleet.manager import FleetManager
from repro.flows.io import write_csv
from repro.flows.table import ALL_COLUMNS
from repro.obs.metrics import MetricsRegistry
from repro.service.app import ServiceApp
from repro.service.protocol import HttpRequest


def req(
    method: str,
    path: str,
    query: dict[str, str] | None = None,
    body: bytes = b"",
) -> HttpRequest:
    return HttpRequest(
        method=method,
        target=path,
        path=path,
        query=query or {},
        headers={},
        body=body,
    )


def body_of(response) -> dict:
    return json.loads(response[1])


def chunk_csv(tmp_dir, chunk) -> bytes:
    path = os.path.join(tmp_dir, "chunk.csv")
    write_csv(chunk, path)
    with open(path, "rb") as handle:
        return handle.read()


def chunk_jsonl(chunk) -> bytes:
    lines = []
    for i in range(len(chunk)):
        lines.append(json.dumps(
            {c: chunk.column(c)[i].item() for c in ALL_COLUMNS}
        ))
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture(scope="module")
def served(service_config, service_chunks, tmp_path_factory):
    """A fleet fed the whole stream through the app's own ingest."""
    tmp = tmp_path_factory.mktemp("served")
    fleet = FleetManager(
        {"linkA": service_config, "linkB": service_config},
        route="dst_ip%2",
        interval_seconds=10.0,
        store_dir=tmp / "stores",
        metrics=MetricsRegistry(),
    )
    app = ServiceApp(fleet)
    for chunk in service_chunks:
        status, body, _ = app.handle(
            req("POST", "/ingest", body=chunk_csv(tmp, chunk))
        )
        assert status == 200, body
    yield app
    fleet.close()


class TestRouting:
    def test_unknown_route_404(self, served):
        status, body, _ = served.handle(req("GET", "/nope"))
        assert status == 404
        assert "no route" in json.loads(body)["error"]

    def test_ingest_requires_post(self, served):
        status, body, _ = served.handle(req("GET", "/ingest"))
        assert status == 405
        assert "use POST" in json.loads(body)["error"]

    def test_queries_require_get(self, served):
        for path in ("/incidents", "/metrics", "/healthz"):
            status, body, _ = served.handle(req("POST", path))
            assert status == 405, path

    def test_trailing_slash_tolerated(self, served):
        status, _, _ = served.handle(req("GET", "/healthz/"))
        assert status == 200


class TestIngest:
    def test_csv_response_shape(
        self, service_config, service_chunks, tmp_path
    ):
        fleet = FleetManager(
            {"linkA": service_config, "linkB": service_config},
            route="dst_ip%2",
            interval_seconds=10.0,
        )
        app = ServiceApp(fleet)
        try:
            first = body_of(app.handle(req(
                "POST", "/ingest",
                body=chunk_csv(tmp_path, service_chunks[0]),
            )))
            assert first == {
                "rows": len(service_chunks[0]),
                "sequence": 1,
                "checkpointed_sequence": 0,
            }
            second = body_of(app.handle(req(
                "POST", "/ingest", {"format": "jsonl"},
                chunk_jsonl(service_chunks[1]),
            )))
            assert second["rows"] == len(service_chunks[1])
            assert second["sequence"] == 2
        finally:
            fleet.close()

    def test_jsonl_matches_csv(self, service_config, service_chunks):
        """Both ingest formats land the same flows: per-pipeline flow
        counters agree after feeding the same chunks either way."""
        def run(fmt):
            fleet = FleetManager(
                {"linkA": service_config, "linkB": service_config},
                route="dst_ip%2",
                interval_seconds=10.0,
            )
            app = ServiceApp(fleet)
            try:
                for chunk in service_chunks[:4]:
                    if fmt == "jsonl":
                        response = app.handle(req(
                            "POST", "/ingest", {"format": "jsonl"},
                            chunk_jsonl(chunk),
                        ))
                    else:
                        rows = [
                            ",".join(
                                str(chunk.column(c)[i].item())
                                if c != "start"
                                else repr(chunk.column(c)[i].item())
                                for c in ALL_COLUMNS
                            )
                            for i in range(len(chunk))
                        ]
                        response = app.ingest_lines(rows)
                health = app.health()
                return {
                    name: p["flows_seen"]
                    for name, p in health["pipelines"].items()
                }, response
            finally:
                fleet.close()

        csv_flows, _ = run("csv")
        jsonl_flows, _ = run("jsonl")
        assert csv_flows == jsonl_flows
        assert sum(csv_flows.values()) == sum(
            len(c) for c in service_chunks[:4]
        )

    def test_pipeline_query_param_targets_one_link(
        self, service_config, service_chunks, tmp_path
    ):
        fleet = FleetManager(
            {"linkA": service_config, "linkB": service_config},
            route="dst_ip%2",
            interval_seconds=10.0,
        )
        app = ServiceApp(fleet)
        try:
            app.handle(req(
                "POST", "/ingest", {"pipeline": "linkA"},
                chunk_csv(tmp_path, service_chunks[0]),
            ))
            health = app.health()
            assert health["pipelines"]["linkA"]["flows_seen"] == len(
                service_chunks[0]
            )
            assert health["pipelines"]["linkB"]["flows_seen"] == 0
        finally:
            fleet.close()

    def test_unknown_format_400(self, served):
        status, body, _ = served.handle(req(
            "POST", "/ingest", {"format": "bogus"}, b"x"
        ))
        assert status == 400
        assert "unknown ingest format" in json.loads(body)["error"]

    def test_non_utf8_body_400(self, served):
        status, body, _ = served.handle(req(
            "POST", "/ingest", body=b"\xff\xfe\x00"
        ))
        assert status == 400
        assert "UTF-8" in json.loads(body)["error"]

    @pytest.mark.parametrize("payload,needle", [
        (b"{not json}\n", "invalid JSON"),
        (b"[1, 2]\n", "flow object"),
        (b'{"src_ip": 1}\n', "missing keys"),
    ])
    def test_jsonl_errors_carry_line_numbers(
        self, served, payload, needle
    ):
        status, body, _ = served.handle(req(
            "POST", "/ingest", {"format": "jsonl"}, payload
        ))
        assert status == 400
        error = json.loads(body)["error"]
        assert error.startswith("ingest:1:")
        assert needle in error

    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "lines"])
    def test_refused_body_feeds_nothing_and_retry_is_clean(
        self, service_config, service_chunks, tmp_path, fmt
    ):
        """A 400 must not leave part of the body behind: the client
        resends the corrected body, and the incident ranking has to
        equal a run that never saw the bad one.  ``chunk_rows=4`` puts
        the bad row several chunks into the body."""
        def csv_rows(chunk):
            return chunk_csv(tmp_path, chunk).decode().splitlines()[1:]

        def post(app, chunk, spoil=False):
            if fmt == "lines":
                rows = csv_rows(chunk)
                return app.ingest_lines(rows + ["1,2,3"] * spoil)
            if fmt == "jsonl":
                body = chunk_jsonl(chunk) + b'{"src_ip": 1}\n' * spoil
            else:
                body = chunk_csv(tmp_path, chunk) + b"1,2,3\r\n" * spoil
            return app.handle(req("POST", "/ingest", {"format": fmt}, body))

        def run(spoil_chunks):
            fleet = FleetManager(
                {"linkA": service_config, "linkB": service_config},
                route="dst_ip%2",
                interval_seconds=10.0,
            )
            app = ServiceApp(fleet, chunk_rows=4)
            try:
                for index, chunk in enumerate(service_chunks):
                    if index in spoil_chunks:
                        before = (app.sequence, app.health()["pipelines"])
                        if fmt == "lines":
                            with pytest.raises(TraceFormatError):
                                post(app, chunk, spoil=True)
                        else:
                            assert post(app, chunk, spoil=True)[0] == 400
                        assert before == (
                            app.sequence, app.health()["pipelines"]
                        )
                    post(app, chunk)
                return body_of(app.handle(req("GET", "/incidents")))
            finally:
                fleet.close()

        clean = run(spoil_chunks=())
        assert clean["count"] > 0
        assert run(spoil_chunks=(2, 7, 12)) == clean

    @pytest.mark.parametrize("key,value", [
        ("src_port", -3),
        ("src_ip", 2**32 + 1),
        ("packets", 2**64),
        ("label", 2**63),
        ("start", float("nan")),
        ("start", float("inf")),
        ("bytes", None),
        ("bytes", "many"),
    ])
    def test_jsonl_refuses_what_csv_refuses(self, served, key, value):
        """Out-of-range and non-finite values answer 400 naming the
        line in both text formats (they used to wrap, or escape the
        error envelope)."""
        record = dict(zip(ALL_COLUMNS, [1, 2, 3, 4, 6, 1, 40, 0.5, 0]))
        good = json.dumps(record)
        before = served.sequence
        status, body, _ = served.handle(req(
            "POST", "/ingest", {"format": "jsonl"},
            f"{good}\n\n{json.dumps({**record, key: value})}\n".encode(),
        ))
        assert status == 400
        assert json.loads(body)["error"].startswith("ingest:3: ")
        assert served.sequence == before
        if value is None or isinstance(value, str | float):
            return
        # Decided by the column's bounds, not by what the installed
        # numpy does with a Python int that does not fit.
        assert json.loads(body)["error"].startswith(
            f"ingest:3: bad value: {key}={value} does not fit"
        )
        cells = [str({**record, key: value}[c]) for c in ALL_COLUMNS]
        status, body, _ = served.handle(req(
            "POST", "/ingest",
            body=f"{','.join(ALL_COLUMNS)}\n\n{','.join(cells)}\n".encode(),
        ))
        assert status == 400
        assert json.loads(body)["error"].startswith(
            f"ingest:3: bad value: {key}={value} does not fit"
        )

    def test_malformed_batch_leaves_sequence_unchanged(self, served):
        before = served.sequence
        status, _, _ = served.handle(req(
            "POST", "/ingest", body=b"not,a,flow\n1,2,3\n"
        ))
        assert status == 400
        assert served.sequence == before

    def test_refused_tcp_batch_names_the_row_in_its_batch(self, served):
        """No header is sent on the line socket, so none is counted:
        the second row of a batch is line 2."""
        good = "1,2,3,4,6,1,40,0.5,0"
        before = served.sequence
        with pytest.raises(TraceFormatError, match=r"^ingest:2: bad value$"):
            served.ingest_lines([good, "1,2,3,4,6,1.5,40,0.5,0"])
        assert served.sequence == before

    def test_start_with_no_interval_index_400(self, served):
        """A start the fleet's grid cannot index is bad input (400),
        refused before any pipeline takes a row."""
        before = (served.sequence, served.health()["pipelines"])
        status, body, _ = served.handle(req(
            "POST", "/ingest",
            body=f"{','.join(ALL_COLUMNS)}\n1,2,3,4,6,1,40,1e300,0\n".encode(),
        ))
        assert status == 400
        assert "no interval index" in json.loads(body)["error"]
        assert before == (served.sequence, served.health()["pipelines"])


class TestRefusedBodyFeedsNothing:
    """A body refused at feed time - by a pipeline's gap guard, an
    unindexable start in a later table, or a fresh pipeline's origin
    check - answers 400 having fed no pipeline: every table is routed
    and checked against the cursor the earlier ones would leave before
    the first is fed."""

    @staticmethod
    def body(*rows: tuple[float, int]) -> bytes:
        lines = [",".join(ALL_COLUMNS)]
        lines += [f"1,{dst},3,4,6,1,40,{start!r},0" for start, dst in rows]
        return ("\n".join(lines) + "\n").encode()

    @pytest.fixture
    def fleet(self, service_config):
        fleet = FleetManager(
            {"linkA": service_config, "linkB": service_config},
            route="dst_ip%2",
            interval_seconds=10.0,
        )
        yield fleet
        fleet.close()

    @pytest.mark.parametrize("chunk_rows,rows,refusal", [
        # linkA takes the first row; linkB's row jumps 200,000
        # intervals past its emit cursor.
        (4096, [(5.0, 0), (2e6, 1)], "jumps 200000 intervals"),
        (1, [(5.0, 0), (2e6, 1)], "jumps 200000 intervals"),
        # The second table's start has no interval index.
        (1, [(5.0, 0), (1e300, 0)], "no interval index"),
        # linkB has accepted nothing: a pre-origin row is a bad origin.
        (1, [(5.0, 0), (-5.0, 1)], "origin is later"),
        # Measured from the cursor the second table leaves linkA at.
        (1, [(5.0, 0), (15.0, 0), (1.5e6, 0)], "jumps 149999 intervals"),
    ])
    def test_refused_body_leaves_every_pipeline_as_it_was(
        self, fleet, chunk_rows, rows, refusal
    ):
        app = ServiceApp(fleet, chunk_rows=chunk_rows)
        warm = app.handle(req("POST", "/ingest", body=self.body((1.0, 0))))
        assert warm[0] == 200
        before = (app.sequence, app.health()["pipelines"])
        status, body, _ = app.handle(
            req("POST", "/ingest", body=self.body(*rows))
        )
        assert status == 400
        assert refusal in json.loads(body)["error"]
        assert before == (app.sequence, app.health()["pipelines"])

    def test_a_later_table_is_checked_against_the_cursor_the_earlier_leave(
        self, fleet
    ):
        """A pre-origin row after its pipeline's first accepted row is a
        late drop, not a refusal, so the body is accepted as before."""
        app = ServiceApp(fleet, chunk_rows=1)
        status, _, _ = app.handle(req(
            "POST", "/ingest", body=self.body((25.0, 1), (-5.0, 1), (5.0, 0))
        ))
        assert status == 200
        linkB = app.health()["pipelines"]["linkB"]
        assert (linkB["flows_seen"], linkB["late_dropped"]) == (1, 1)
        assert app.health()["pipelines"]["linkA"]["flows_seen"] == 1


class TestQueries:
    def test_incidents_listing(self, served):
        payload = body_of(served.handle(req("GET", "/incidents")))
        assert payload["count"] == len(payload["incidents"]) > 0
        for entry in payload["incidents"]:
            pipeline, _, number = entry["id"].partition(":")
            assert pipeline in ("linkA", "linkB")
            assert number.isdigit()

    def test_incidents_top(self, served):
        payload = body_of(served.handle(req(
            "GET", "/incidents", {"top": "1"}
        )))
        assert payload["count"] == 1

    def test_incidents_bad_top_400(self, served):
        status, body, _ = served.handle(req(
            "GET", "/incidents", {"top": "many"}
        ))
        assert status == 400

    def test_incident_detail(self, served):
        listing = body_of(served.handle(req("GET", "/incidents")))
        incident_id = listing["incidents"][0]["id"]
        response = served.handle(req(
            "GET", f"/incidents/{incident_id}"
        ))
        assert response[0] == 200
        detail = body_of(response)
        assert detail["id"] == incident_id
        assert detail["pipeline"] == incident_id.split(":")[0]
        # The provenance document, not just the ranking row.
        assert "intervals" in detail or "components" in detail

    def test_unknown_incident_404(self, served):
        status, body, _ = served.handle(req(
            "GET", "/incidents/linkA:99999"
        ))
        assert status == 404
        assert "no incident" in json.loads(body)["error"]

    def test_malformed_incident_id_400(self, served):
        status, _, _ = served.handle(req("GET", "/incidents/junk"))
        assert status == 400

    def test_metrics_export(self, served):
        status, body, content_type = served.handle(req(
            "GET", "/metrics"
        ))
        assert status == 200
        assert content_type.startswith("text/plain")
        text = body.decode()
        assert "repro_service_requests_total" in text
        assert "repro_service_ingest_rows_total" in text

    def test_healthz_document(self, served):
        payload = body_of(served.handle(req("GET", "/healthz")))
        assert payload["status"] == "ok"
        assert payload["sequence"] >= 16
        assert payload["checkpointing"] is False
        for name in ("linkA", "linkB"):
            pipeline = payload["pipelines"][name]
            assert pipeline["watermark"] is not None
            assert pipeline["flows_seen"] > 0
            assert pipeline["next_interval"] > 0
            assert "watermark_lag_seconds" in pipeline
            assert "pending_intervals" in pipeline
            assert "backpressure_emits" in pipeline


class TestCheckpointPolicy:
    def make_app(self, service_config, tmp_path, **kwargs):
        fleet = FleetManager(
            {"linkA": service_config},
            route="dst_ip",
            interval_seconds=10.0,
            store_dir=tmp_path / "stores",
        )
        return fleet, ServiceApp(
            fleet,
            checkpoint_path=str(tmp_path / "fleet.ckpt"),
            **kwargs,
        )

    def test_every_n_batches(
        self, service_config, service_chunks, tmp_path
    ):
        fleet, app = self.make_app(
            service_config, tmp_path, checkpoint_every=2
        )
        try:
            responses = [
                body_of(app.handle(req(
                    "POST", "/ingest", body=chunk_csv(tmp_path, chunk)
                )))
                for chunk in service_chunks[:4]
            ]
            assert [r["checkpointed_sequence"] for r in responses] == [
                0, 2, 2, 4
            ]
            assert (tmp_path / "fleet.ckpt").exists()
        finally:
            fleet.close()

    def test_memory_stores_refused(self, service_config, tmp_path):
        fleet = FleetManager(
            {"linkA": service_config},
            route="dst_ip",
            interval_seconds=10.0,
        )
        try:
            with pytest.raises(ConfigError, match="durable"):
                ServiceApp(
                    fleet, checkpoint_path=str(tmp_path / "x.ckpt")
                )
        finally:
            fleet.close()

    def test_checkpoint_without_path_refused(self, served):
        with pytest.raises(CheckpointError, match="checkpoint_path"):
            served.checkpoint()

    def test_bad_knobs_refused(self, service_config):
        fleet = FleetManager(
            {"linkA": service_config},
            route="dst_ip",
            interval_seconds=10.0,
        )
        try:
            with pytest.raises(ConfigError, match="checkpoint_every"):
                ServiceApp(fleet, checkpoint_every=0)
            with pytest.raises(ConfigError, match="chunk_rows"):
                ServiceApp(fleet, chunk_rows=0)
            with pytest.raises(ConfigError, match="sequence"):
                ServiceApp(fleet, sequence=-1)
        finally:
            fleet.close()
