"""SIGINT/SIGTERM during extract/fleet feeds: flush, save, exit 128+n.

The guard (``repro.cli._common.interrupt_guard``) wraps only the feed
loop, so an interrupted run still flushes the assembler, prints the
summary, and writes every requested output (``--store``, ``--metrics``,
``--trace``) before exiting with the conventional signal code.
"""

from __future__ import annotations

import json
import os
import signal

import pytest

from repro.cli import main
from repro.cli._common import GracefulInterrupt, interrupt_guard
from repro.flows import write_csv
from repro.incidents.store import open_store


@pytest.fixture(scope="module")
def csv_trace(tmp_path_factory, ddos_trace):
    path = tmp_path_factory.mktemp("interrupt-cli") / "trace.csv"
    write_csv(ddos_trace.flows, str(path))
    return str(path)


_ARGS = ["--bins", "256", "--training", "16", "--min-support", "300"]


def interrupting_chunks(inner, after: int, signum: int):
    """Yield ``after`` chunks, then deliver a real signal to this
    process - exactly what Ctrl-C mid-pipe does."""
    for i, chunk in enumerate(inner):
        if i == after:
            os.kill(os.getpid(), signum)
            raise AssertionError("signal was not converted in the loop")
        yield chunk


class TestGuard:
    def test_converts_sigint_and_restores_handler(self):
        before = signal.getsignal(signal.SIGINT)
        with pytest.raises(GracefulInterrupt) as info:
            with interrupt_guard():
                os.kill(os.getpid(), signal.SIGINT)
        assert info.value.signum == signal.SIGINT
        assert info.value.exit_code == 130
        assert signal.getsignal(signal.SIGINT) is before

    def test_converts_sigterm(self):
        with pytest.raises(GracefulInterrupt) as info:
            with interrupt_guard():
                os.kill(os.getpid(), signal.SIGTERM)
        assert info.value.exit_code == 143

    def test_no_signal_no_effect(self):
        with interrupt_guard():
            pass


class TestExtractInterrupt:
    def run_interrupted(
        self, csv_trace, tmp_path, monkeypatch, capsys, signum
    ):
        from repro.cli import extract as extract_cli

        original = extract_cli.flow_chunks

        def patched(*args):
            return interrupting_chunks(
                original(*args), after=2, signum=signum
            )

        monkeypatch.setattr(extract_cli, "flow_chunks", patched)
        store = tmp_path / "incidents.db"
        metrics = tmp_path / "metrics.prom"
        code = main([
            "extract", csv_trace, *_ARGS,
            "--chunk-rows", "2000",
            "--store", str(store),
            "--metrics", str(metrics),
        ])
        return code, store, metrics, capsys.readouterr()

    def test_sigint_flushes_and_saves(
        self, csv_trace, tmp_path, monkeypatch, capsys
    ):
        code, store, metrics, captured = self.run_interrupted(
            csv_trace, tmp_path, monkeypatch, capsys, signal.SIGINT
        )
        assert code == 130
        assert "interrupted by SIGINT; flushed and saved" in captured.out
        # The outputs a completed run would write all still exist.
        assert metrics.exists()
        assert "repro_flows_processed_total" in metrics.read_text()
        with open_store(store, must_exist=True) as opened:
            # The flush completed the buffered intervals: the store
            # marker reflects the flows fed before the signal.
            assert opened.last_interval() is not None

    def test_sigterm_exit_code(
        self, csv_trace, tmp_path, monkeypatch, capsys
    ):
        code, _, _, captured = self.run_interrupted(
            csv_trace, tmp_path, monkeypatch, capsys, signal.SIGTERM
        )
        assert code == 143
        assert "interrupted by SIGTERM" in captured.out


class TestFleetInterrupt:
    def test_sigint_still_writes_ranking_and_stores(
        self, csv_trace, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import fleet as fleet_cli

        original = fleet_cli.flow_chunks

        def patched(*args):
            return interrupting_chunks(
                original(*args), after=2, signum=signal.SIGINT
            )

        monkeypatch.setattr(fleet_cli, "flow_chunks", patched)
        store_dir = tmp_path / "stores"
        code = main([
            "fleet", csv_trace, *_ARGS,
            "--chunk-rows", "2000",
            "--pipelines", "2",
            "--store-dir", str(store_dir),
            "--format", "json",
        ])
        assert code == 130
        captured = capsys.readouterr()
        # stdout still carries the complete JSON document (per-pipeline
        # summaries + merged ranking) for everything fed pre-signal.
        document = json.loads(captured.out)
        assert set(document["pipelines"]) == {"link0", "link1"}
        assert "incidents" in document
        assert sorted(p.name for p in store_dir.iterdir()) == [
            "link0.db", "link1.db"
        ]
