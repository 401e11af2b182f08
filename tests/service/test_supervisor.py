"""Supervisor end-to-end: real sockets, lifecycle, resume policy."""

from __future__ import annotations

import asyncio
import io
import json
import os
import re
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.config import ServiceSettings
from repro.errors import ConfigError, ServiceError
from repro.fleet.manager import FleetManager
from repro.flows.io import write_csv
from repro.obs.metrics import MetricsRegistry
from repro.service.app import ServiceApp
from repro.service.checkpoint import read_checkpoint
from repro.service.supervisor import (
    ServiceSupervisor,
    resume_sequence,
    run_service,
)
from repro.state import canonical_json


def build_fleet(config, store_dir=None):
    return FleetManager(
        {"linkA": config, "linkB": config},
        route="dst_ip%2",
        interval_seconds=10.0,
        store_dir=store_dir,
        metrics=MetricsRegistry(),
    )


def csv_bytes(tmp_dir, chunk) -> bytes:
    path = os.path.join(tmp_dir, "chunk.csv")
    write_csv(chunk, path)
    with open(path, "rb") as handle:
        return handle.read()


def http(port, method, path, body=None):
    """One blocking HTTP exchange (callers run it in an executor -
    calling it on the event-loop thread would deadlock the server)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=body, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


class TestSupervisorEndToEnd:
    def test_http_tcp_lifecycle_and_final_checkpoint(
        self, service_config, service_chunks, tmp_path
    ):
        """The full daemon surface over real sockets, then a graceful
        stop that must flush one final checkpoint."""
        fleet = build_fleet(service_config, tmp_path / "stores")
        ckpt = tmp_path / "fleet.ckpt"
        app = ServiceApp(
            fleet, checkpoint_path=str(ckpt), checkpoint_every=4
        )
        supervisor = ServiceSupervisor(app, port=0, ingest_port=0)

        async def drive():
            await supervisor.start()
            port = supervisor.http_port
            loop = asyncio.get_running_loop()

            def call(method, path, body=None):
                return loop.run_in_executor(
                    None, http, port, method, path, body
                )

            for chunk in service_chunks[:6]:
                status, body = await call(
                    "POST", "/ingest", csv_bytes(tmp_path, chunk)
                )
                assert status == 200, body

            # TCP line ingest: one batch of header-less CSV rows.
            raw = csv_bytes(tmp_path, service_chunks[6])
            rows = raw.decode().splitlines()[1:]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", supervisor.bound_ingest_port
            )
            writer.write(("\n".join(rows) + "\n").encode())
            writer.write_eof()
            ack = (await reader.readline()).decode().strip()
            assert ack == f"ok {len(rows)} 7"
            writer.close()
            await writer.wait_closed()

            # A malformed TCP batch is refused with err, not a crash.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", supervisor.bound_ingest_port
            )
            writer.write(b"not,a,flow\n")
            writer.write_eof()
            err = (await reader.readline()).decode()
            assert err.startswith("err ")
            writer.close()
            await writer.wait_closed()

            status, body = await call("GET", "/healthz")
            health = json.loads(body)
            assert (status, health["sequence"]) == (200, 7)
            assert health["checkpointed_sequence"] == 4
            assert health["checkpointing"] is True

            status, body = await call("GET", "/incidents")
            assert status == 200
            assert json.loads(body)["count"] >= 0

            status, body = await call("GET", "/metrics")
            assert status == 200
            assert b"repro_service_requests_total" in body

            status, body = await call("GET", "/bogus")
            assert status == 404

            status, body = await call("POST", "/ingest?format=nope", b"x")
            assert status == 400

            await supervisor.stop()

        try:
            asyncio.run(drive())
            # Graceful stop wrote the final checkpoint (sequence 7,
            # which the periodic every-4 policy had not covered).
            assert read_checkpoint(ckpt)["sequence"] == 7
        finally:
            fleet.close()

    def test_oversized_body_rejected_with_413(
        self, service_config, service_chunks, tmp_path
    ):
        fleet = build_fleet(service_config)
        app = ServiceApp(fleet)
        supervisor = ServiceSupervisor(
            app, port=0, max_body_bytes=1024
        )

        async def drive():
            await supervisor.start()
            loop = asyncio.get_running_loop()
            status, body = await loop.run_in_executor(
                None, http, supervisor.http_port, "POST", "/ingest",
                b"x" * 4096,
            )
            assert status == 413
            assert "max_body_bytes" in json.loads(body)["error"]
            await supervisor.stop()

        try:
            asyncio.run(drive())
        finally:
            fleet.close()

    def test_overlong_tcp_line_is_refused_with_err(
        self, service_config, service_chunks, tmp_path
    ):
        """A line past the reader's limit drops the batch it would have
        joined, answers ``err`` naming the limit, and hangs up; the
        batch acknowledged before it stays fed."""
        fleet = build_fleet(service_config)
        app = ServiceApp(fleet, chunk_rows=2)
        supervisor = ServiceSupervisor(app, port=0, ingest_port=0)
        rows = csv_bytes(tmp_path, service_chunks[0]).splitlines()[1:]

        async def drive():
            await supervisor.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", supervisor.bound_ingest_port
            )
            writer.write(b"\n".join(rows[:2]) + b"\n")
            assert await reader.readline() == b"ok 2 1\n"
            acked = canonical_json(fleet.to_state())
            writer.write(rows[2] + b"\n" + b"9" * 70_000 + b"\n")
            writer.write(rows[3] + b"\n")
            writer.write_eof()
            assert await reader.readline() == (
                b"err line longer than 65536 bytes; batch dropped, "
                b"connection closed\n"
            )
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()
            assert (app.sequence, canonical_json(fleet.to_state())) == (
                1,
                acked,
            )
            await supervisor.stop()

        try:
            asyncio.run(drive())
        finally:
            fleet.close()

    def test_double_start_refused(self, service_config):
        fleet = build_fleet(service_config)
        supervisor = ServiceSupervisor(ServiceApp(fleet), port=0)

        async def drive():
            await supervisor.start()
            with pytest.raises(ServiceError, match="already started"):
                await supervisor.start()
            await supervisor.stop()

        try:
            asyncio.run(drive())
        finally:
            fleet.close()


class TestResumePolicy:
    def settings(self, **kwargs):
        return ServiceSettings.from_data(None) if not kwargs else (
            ServiceSettings(**kwargs)
        )

    def test_resume_without_checkpoint_path_is_config_error(
        self, service_config
    ):
        fleet = build_fleet(service_config)
        try:
            with pytest.raises(ConfigError, match="checkpoint_path"):
                resume_sequence(fleet, self.settings(), resume=True)
        finally:
            fleet.close()

    def test_missing_file_cold_starts_at_zero(
        self, service_config, tmp_path
    ):
        fleet = build_fleet(service_config, tmp_path / "stores")
        settings = self.settings(
            checkpoint_path=str(tmp_path / "absent.ckpt")
        )
        try:
            assert resume_sequence(fleet, settings, resume=True) == 0
            assert resume_sequence(fleet, settings, resume=False) == 0
        finally:
            fleet.close()

    def test_existing_file_demands_explicit_resume(
        self, service_config, service_chunks, tmp_path
    ):
        ckpt = tmp_path / "fleet.ckpt"
        first = build_fleet(service_config, tmp_path / "stores")
        app = ServiceApp(first, checkpoint_path=str(ckpt), checkpoint_every=1)
        try:
            for chunk in service_chunks[:4]:
                first.feed(chunk)
                app.batch_accepted(len(chunk))
        finally:
            first.close()
        settings = self.settings(checkpoint_path=str(ckpt))

        second = build_fleet(service_config, tmp_path / "stores")
        try:
            with pytest.raises(ServiceError, match="--resume"):
                resume_sequence(second, settings, resume=False)
            assert resume_sequence(second, settings, resume=True) == 4
        finally:
            second.close()


class TestRunService:
    def test_blocking_entry_point_serves_until_sigterm(
        self, service_config, service_chunks, tmp_path
    ):
        """run_service announces its ephemeral port, serves ingest,
        and on SIGTERM drains and writes the final checkpoint."""
        fleet = build_fleet(service_config, tmp_path / "stores")
        ckpt = tmp_path / "fleet.ckpt"
        settings = ServiceSettings(
            port=0, checkpoint_path=str(ckpt), checkpoint_every=100
        )
        log = io.StringIO()
        failures: list[str] = []

        def client():
            deadline = time.monotonic() + 15
            port = None
            while time.monotonic() < deadline:
                match = re.search(
                    r"http://127\.0\.0\.1:(\d+)", log.getvalue()
                )
                if match:
                    port = int(match.group(1))
                    break
                time.sleep(0.05)
            try:
                if port is None:
                    failures.append("server never announced a port")
                    return
                status, body = http(
                    port, "POST", "/ingest",
                    csv_bytes(tmp_path, service_chunks[0]),
                )
                if status != 200:
                    failures.append(f"ingest failed: {status} {body!r}")
            finally:
                # Always deliver the signal, or run_service never
                # returns and the test hangs.
                os.kill(os.getpid(), signal.SIGTERM)

        thread = threading.Thread(target=client)
        thread.start()
        try:
            run_service(fleet, settings, log=log)
        finally:
            thread.join(timeout=15)
            fleet.close()
        assert failures == []
        assert "serving http://127.0.0.1:" in log.getvalue()
        # checkpoint_every=100 never fired; this is the shutdown flush.
        assert read_checkpoint(ckpt)["sequence"] == 1
