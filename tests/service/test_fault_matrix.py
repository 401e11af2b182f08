"""Faults at the daemon's edges: a checkpoint that cannot be written,
a bug inside a handler.

An *applied* batch is acknowledged whatever happens to the periodic
checkpoint after it - a 400 there makes a client that honours the
all-or-nothing ingest contract resend the batch and double-feed it.
And every request is answered and counted: an exception outside
``ReproError`` is a 500 envelope (an ``err`` line on the TCP port),
never a dropped connection.
"""

from __future__ import annotations

import asyncio
import errno
import json
import os

import pytest

from repro.errors import CheckpointError
from repro.fleet.manager import FleetManager
from repro.flows.io import write_csv
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.service import checkpoint as checkpoint_module
from repro.service.app import ServiceApp
from repro.service.protocol import HttpRequest
from repro.service.supervisor import ServiceSupervisor


def http(method: str, path: str, body: bytes = b"") -> HttpRequest:
    return HttpRequest(
        method=method, target=path, path=path, query={}, headers={},
        body=body,
    )


def post(path: str, body: bytes) -> HttpRequest:
    return http("POST", path, body)


def csv_of(tmp_path, chunk) -> bytes:
    path = os.path.join(tmp_path, "chunk.csv")
    write_csv(chunk, path)
    with open(path, "rb") as handle:
        return handle.read()


def no_space(*_args, **_kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


class _FullDisk:
    """A file whose ``write`` hits ENOSPC (everything else is real)."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    write = staticmethod(no_space)


@pytest.fixture(params=["rename", "write"])
def disk_full(request, monkeypatch):
    """Arms ENOSPC on the checkpoint's rename or on its file write;
    returns the function that disarms it."""

    def arm():
        if request.param == "rename":
            monkeypatch.setattr(checkpoint_module.os, "replace", no_space)
        else:
            monkeypatch.setattr(
                checkpoint_module, "open",
                lambda path, mode: _FullDisk(open(path, mode)),
                raising=False,
            )
        return monkeypatch.undo

    return arm


@pytest.fixture()
def daemon(service_config, tmp_path):
    fleet = FleetManager(
        {"linkA": service_config},
        route="dst_ip",
        interval_seconds=10.0,
        store_dir=tmp_path / "stores",
        metrics=MetricsRegistry(),
        tracer=Tracer(),
    )
    app = ServiceApp(
        fleet, checkpoint_path=str(tmp_path / "run.ckpt"), checkpoint_every=1
    )
    yield app
    fleet.close()


def failures(app) -> float:
    text = app.fleet.metrics.render_prometheus()
    (line,) = [
        line for line in text.splitlines()
        if line.startswith("repro_checkpoint_failures_total")
    ]
    return float(line.split()[-1])


class TestCheckpointCannotBeWritten:
    def test_applied_batch_is_acknowledged(
        self, daemon, disk_full, service_chunks, tmp_path, capsys
    ):
        bodies = [csv_of(tmp_path, chunk) for chunk in service_chunks[:4]]
        ckpt = tmp_path / "run.ckpt"
        status, body, _ = daemon.handle(post("/ingest", bodies[0]))
        assert (status, json.loads(body)["checkpointed_sequence"]) == (200, 1)
        before = ckpt.read_bytes()

        disarm = disk_full()
        for n, payload in enumerate(bodies[1:3], start=2):
            status, body, _ = daemon.handle(post("/ingest", payload))
            ack = json.loads(body)
            assert status == 200, ack
            assert (ack["sequence"], ack["checkpointed_sequence"]) == (n, 1)
        # The TCP port's batch call: an ``ok`` line, not ``err``.
        rows = bodies[3].decode().splitlines()[1:]
        assert daemon.ingest_lines(rows) == (len(rows), 4)
        with pytest.raises(CheckpointError, match="cannot write"):
            daemon.checkpoint()  # asked for explicitly: still raises

        assert ckpt.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == [
            "chunk.csv", "run.ckpt", "stores",
        ]
        assert failures(daemon) == 3
        health = daemon.health()
        assert "No space left" in health["checkpoint"]["last_error"]
        assert health["checkpointed_sequence"] == 1
        # One log line for the streak, not one per batch.
        assert capsys.readouterr().err.count("checkpoint failed") == 1

        disarm()
        status, body, _ = daemon.handle(post("/ingest", bodies[0]))
        assert json.loads(body)["checkpointed_sequence"] == 5
        assert daemon.health()["checkpoint"]["last_error"] is None
        assert ckpt.read_bytes() != before

    def test_digest_batch_is_acknowledged(
        self, service_config, disk_full, tmp_path
    ):
        from repro.federation import Collector, Federator
        from repro.incidents import IncidentStore

        common = dict(
            config=service_config.detector,
            features=service_config.features,
            seed=0,
        )
        fleet = FleetManager(
            {"linkA": service_config}, route="dst_ip",
            interval_seconds=10.0, store_dir=tmp_path / "stores",
        )
        store = IncidentStore(str(tmp_path / "stores" / "federation.db"))
        app = ServiceApp(
            fleet,
            checkpoint_path=str(tmp_path / "run.ckpt"),
            checkpoint_every=1,
            federator=Federator(
                ("east",), interval_seconds=10.0, store=store, **common
            ),
        )
        try:
            disk_full()
            line = Collector("east", **common).empty_digest(0).to_json()
            status, body, _ = app.handle(post("/digest", line.encode()))
            ack = json.loads(body)
            assert status == 200, ack
            assert (ack["sequence"], ack["checkpointed_sequence"]) == (1, 0)
            assert ack["next_interval"] == 1  # applied, and says so
            # the batch's checkpoint write was tried, and failed
            assert "No space left" in app.health()["checkpoint"]["last_error"]
            assert os.listdir(tmp_path) == ["stores"]
        finally:
            fleet.close()
            store.close()


class TestBugInsideAHandler:
    def test_http_answers_a_counted_500(self, daemon, monkeypatch, capsys):
        def boom(*_args, **_kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(daemon.fleet, "incidents", boom)
        status, body, content_type = daemon.handle(
            http("GET", "/incidents")
        )
        assert status == 500
        assert json.loads(body) == {"error": "boom"}
        assert content_type == "application/json"
        assert (
            'repro_service_requests_total{method="GET",'
            'route="/incidents",status="500"} 1'
        ) in daemon.fleet.metrics.render_prometheus()
        (span,) = [
            s for s in daemon.fleet.tracer.spans
            if s.name == "service.request"
        ]
        assert span.attributes["status"] == 500
        assert span.end_time is not None
        assert "RuntimeError: boom" in capsys.readouterr().err

    def test_tcp_answers_err_and_keeps_the_connection(
        self, daemon, monkeypatch, capsys
    ):
        supervisor = ServiceSupervisor(daemon, port=0, ingest_port=0)
        calls = []

        def flaky(lines, pipeline=None):
            calls.append(len(lines))
            if len(calls) == 1:
                raise RuntimeError("boom")
            return len(lines), 1

        monkeypatch.setattr(daemon, "ingest_lines", flaky)
        monkeypatch.setattr(daemon, "chunk_rows", 1)

        async def drive():
            await supervisor.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", supervisor.bound_ingest_port
            )
            writer.write(b"first\nsecond\n")
            writer.write_eof()
            replies = [
                (await asyncio.wait_for(reader.readline(), 10)).decode()
                for _ in range(2)
            ]
            writer.close()
            await writer.wait_closed()
            await supervisor.stop(final_checkpoint=False)
            return replies

        assert asyncio.run(drive()) == ["err boom\n", "ok 1 1\n"]
        assert "RuntimeError: boom" in capsys.readouterr().err
