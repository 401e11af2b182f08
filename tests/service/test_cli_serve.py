"""The ``serve`` subcommand and the ``api.serve`` facade verb."""

from __future__ import annotations

import io
import json
import os
import re
import signal
import socket
import threading
import time
import urllib.request

from repro.cli import build_parser, main
from repro.cli._common import run_config


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestParser:
    def test_serve_flags(self):
        args = build_parser().parse_args([
            "serve", "--resume", "--port", "0", "--ingest-port", "0",
            "--checkpoint", "x.ckpt", "--checkpoint-every", "3",
            "--pipelines", "2", "--route", "dst_ip%2",
            "--store-dir", "stores",
        ])
        assert args.resume is True
        service = run_config(args).service
        assert service.port == 0
        assert service.checkpoint_path == "x.ckpt"
        assert service.checkpoint_every == 3
        # only overrides [service] checkpoint_sync when passed
        assert getattr(args, "service.checkpoint_sync") is None
        assert service.checkpoint_sync is False

    def test_checkpoint_sync_flag(self):
        args = build_parser().parse_args(
            ["serve", "--checkpoint-sync", "--pipelines", "1"]
        )
        assert run_config(args).service.checkpoint_sync is True


class TestErrorPaths:
    def test_resume_without_checkpoint_path(self, capsys):
        code = main(["serve", "--resume", "--pipelines", "1"])
        assert code == 2
        assert "checkpoint_path" in capsys.readouterr().err

    def test_existing_checkpoint_demands_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "fleet.ckpt"
        ckpt.write_text("{}")
        code = main([
            "serve", "--pipelines", "1",
            "--store-dir", str(tmp_path / "stores"),
            "--checkpoint", str(ckpt),
        ])
        assert code == 2
        assert "pass --resume" in capsys.readouterr().err

    def test_bad_service_key_gets_hint(self, tmp_path, capsys):
        config = tmp_path / "fleet.toml"
        config.write_text("[service]\nprt = 8181\n")
        code = main(["serve", "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(config) in err
        assert "port" in err  # the did-you-mean hint

    def test_non_boolean_checkpoint_sync_rejected(
        self, tmp_path, capsys
    ):
        config = tmp_path / "fleet.toml"
        config.write_text("[service]\ncheckpoint_sync = 8\n")
        code = main(["serve", "--config", str(config)])
        assert code == 2
        assert "checkpoint_sync must be a boolean" in (
            capsys.readouterr().err
        )

    def test_pipelines_flag_conflicts_with_config_sections(
        self, tmp_path, capsys
    ):
        config = tmp_path / "fleet.toml"
        config.write_text("[fleet.pipelines.linkA]\n")
        code = main([
            "serve", "--config", str(config), "--pipelines", "2"
        ])
        assert code == 2
        assert "one place" in capsys.readouterr().err


class TestServeEndToEnd:
    def test_daemon_serves_then_drains_on_sigterm(
        self, service_chunks, tmp_path
    ):
        """Whole stack through main(): config resolution, fleet build,
        listeners, ingest, SIGTERM drain with final checkpoint."""
        from repro.flows.io import write_csv

        port = free_port()
        ckpt = tmp_path / "fleet.ckpt"
        chunk_path = tmp_path / "chunk.csv"
        write_csv(service_chunks[0], str(chunk_path))
        failures: list[str] = []

        def client():
            body = chunk_path.read_bytes()
            deadline = time.monotonic() + 15
            try:
                while time.monotonic() < deadline:
                    try:
                        request = urllib.request.Request(
                            f"http://127.0.0.1:{port}/ingest",
                            data=body, method="POST",
                        )
                        with urllib.request.urlopen(
                            request, timeout=5
                        ) as response:
                            payload = json.loads(response.read())
                        if payload["sequence"] != 1:
                            failures.append(f"bad ack: {payload}")
                        return
                    except OSError:
                        time.sleep(0.05)
                failures.append("daemon never accepted the ingest")
            finally:
                os.kill(os.getpid(), signal.SIGTERM)

        thread = threading.Thread(target=client)
        thread.start()
        try:
            code = main([
                "serve",
                "--training", "3", "--min-support", "40",
                "--pipelines", "2", "--route", "dst_ip%2",
                "--store-dir", str(tmp_path / "stores"),
                "--checkpoint", str(ckpt),
                "--checkpoint-every", "100",
                "--port", str(port),
            ])
        finally:
            thread.join(timeout=15)
        assert failures == []
        assert code == 0
        # The SIGTERM drain wrote the final checkpoint.
        from repro.service.checkpoint import read_checkpoint

        assert read_checkpoint(ckpt)["sequence"] == 1


class TestApiServe:
    def test_facade_verb_round_trip(self, service_chunks, tmp_path):
        import repro.api as repro
        from repro.flows.io import write_csv

        chunk_path = tmp_path / "chunk.csv"
        write_csv(service_chunks[0], str(chunk_path))
        log = io.StringIO()
        failures: list[str] = []

        def client():
            deadline = time.monotonic() + 15
            port = None
            while time.monotonic() < deadline:
                match = re.search(r":(\d+)$", log.getvalue().strip())
                if match:
                    port = int(match.group(1))
                    break
                time.sleep(0.05)
            try:
                if port is None:
                    failures.append("no announcement")
                    return
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}/ingest",
                    data=chunk_path.read_bytes(), method="POST",
                )
                with urllib.request.urlopen(
                    request, timeout=5
                ) as response:
                    if response.status != 200:
                        failures.append(f"status {response.status}")
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/healthz", timeout=5
                ) as response:
                    health = json.loads(response.read())
                if health["sequence"] != 1:
                    failures.append(f"bad health: {health}")
            finally:
                os.kill(os.getpid(), signal.SIGTERM)

        thread = threading.Thread(target=client)
        thread.start()
        try:
            repro.serve(
                pipelines=2,
                route="dst_ip%2",
                port=0,
                min_support=40,
                log=log,
            )
        finally:
            thread.join(timeout=15)
        assert failures == []
        assert log.getvalue().startswith("serving http://127.0.0.1:")
