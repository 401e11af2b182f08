"""The CLI smoke checks, run in-process through ``repro.cli.main``.

Each test is one former CI smoke step, assertion for assertion: the
exit codes, the refusal wording and the absence of a traceback (a
traceback in-process is an exception escaping ``main``).
"""

import contextlib
import io
import json
import warnings
from pathlib import Path

import pytest

import repro
from repro.cli import main

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def test_run_config_smoke(tmp_path, capsys):
    """``--version``; ``generate``; ``extract --config examples/run.toml``;
    an unknown key refused; an unknown miner refused with the hint."""
    with pytest.raises(SystemExit) as version:
        main(["--version"])
    assert version.value.code == 0
    assert repro.__version__ in capsys.readouterr().out

    trace = str(tmp_path / "config-smoke.npz")
    generate = [
        "generate", "--intervals", "6", "--flows-per-interval", "300",
        "--out", trace,
    ]
    assert main(generate) == 0
    run = str(EXAMPLES / "run.toml")
    assert main(
        ["extract", trace, "--config", run, "--training", "3", "--bins", "64"]
    ) == 0
    capsys.readouterr()

    # Unknown keys must fail with a hint, not a traceback.
    bad = tmp_path / "bad.toml"
    bad.write_text("[mining]\nmin_suport = 50\n")
    assert main(["extract", trace, "--config", str(bad)]) != 0
    capsys.readouterr()

    # An unknown miner is refused naming the closest one: exit 2, no
    # traceback.
    miner = tmp_path / "miner.toml"
    miner.write_text('[mining]\nminer = "aprioro"\n')
    assert main(["extract", trace, "--config", str(miner)]) == 2
    err = capsys.readouterr().err
    assert "did you mean 'apriori'" in err
    assert "Traceback" not in err


def _generate(path: Path, intervals: int, *flags: str) -> str:
    """``generate`` a trace to ``path``; its event listing is dropped."""
    argv = [
        "generate", "--intervals", str(intervals),
        "--flows-per-interval", "300", *flags, "--out", str(path),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return str(path)


@pytest.fixture(scope="module")
def anomalies(tmp_path_factory):
    """The 200-interval ``--with-anomalies`` trace the incident store,
    fleet and trace smokes read."""
    path = tmp_path_factory.mktemp("smokes") / "anomalies.csv"
    return _generate(path, 200, "--with-anomalies")


@pytest.fixture(scope="module")
def fleet_run(anomalies, tmp_path_factory):
    """The fleet smoke's run: its stdout and its store directory (the
    trace smoke explains an incident from those stores)."""
    stores = tmp_path_factory.mktemp("smokes") / "fleet-stores"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([
            "fleet", anomalies, "--pipelines", "2", "--route", "dst_ip%2",
            "--bins", "64", "--training", "16", "--min-support", "50",
            "--store-dir", str(stores), "--format", "json",
        ])
    return code, out.getvalue(), stores


SMALL = ["--bins", "64", "--training", "3", "--min-support", "50"]
LARGE = ["--bins", "64", "--training", "16", "--min-support", "50"]


def test_streaming_smoke(tmp_path, capsys, monkeypatch):
    """A CSV path in chunks, stdin with numpy warnings as errors, an
    out-of-range cell refused naming its line, a bad header refused."""
    smoke = Path(_generate(tmp_path / "smoke.csv", 6))
    assert main(["extract", str(smoke), *SMALL, "--chunk-rows", "128"]) == 0
    with warnings.catch_warnings():
        # The batch decoder must not leak a numpy warning.
        warnings.simplefilter("error")
        monkeypatch.setattr("sys.stdin", io.StringIO(smoke.read_text()))
        assert main(["extract", "-", *SMALL]) == 0
        # An out-of-range cell is refused naming its physical line
        # (header = line 1, so the 50th data row is line 51).
        lines = smoke.read_text().splitlines(keepends=True)
        cells = lines[50].split(",")
        cells[2] = "-7"
        lines[50] = ",".join(cells)
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(lines)))
        capsys.readouterr()
        assert main(["extract", "-", *SMALL]) == 2
        assert ":51:" in capsys.readouterr().err
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("not,a,trace\n1,2,3\n")
    assert main(["extract", str(malformed)]) == 2


def test_incident_store_smoke(anomalies, tmp_path, capsys):
    """``--store`` with JSON reports, then ``incidents`` over the store
    in table and JSON form."""
    db = str(tmp_path / "incidents.db")
    assert main(
        ["extract", anomalies, *LARGE, "--store", db, "--format", "json"]
    ) == 0
    # Every stdout line is one valid report document.
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert reports, "extract --store produced no reports"
    assert main(["incidents", db, "--top", "5"]) == 0
    capsys.readouterr()
    assert main(["incidents", db, "--format", "json"]) == 0
    incidents = json.loads(capsys.readouterr().out)
    assert incidents, "incident query returned no incidents"
    assert all("score" in i and "state" in i for i in incidents)


def test_fleet_smoke(fleet_run, capsys):
    """Two routed pipelines: the JSON document, one store per pipeline,
    and the stores answer ``incidents``."""
    code, out, stores = fleet_run
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["incidents", "pipelines"]
    assert sorted(doc["pipelines"]) == ["link0", "link1"]
    assert all(p["flows"] > 0 for p in doc["pipelines"].values())
    assert doc["incidents"], "fleet produced no incidents"
    assert all("pipeline" in i and "score" in i for i in doc["incidents"])
    # One store per pipeline landed on disk.
    assert sorted(p.name for p in stores.iterdir()) == ["link0.db", "link1.db"]
    assert main(["incidents", str(stores / "link0.db"), "--top", "3"]) == 0


def test_trace_smoke(anomalies, fleet_run, tmp_path, capsys):
    """Span export as JSONL on stdout and as a Chrome document, then
    ``incidents explain`` on the fleet smoke's top incident."""
    # Every trace line is a schema-valid JSONL record and the session
    # root span is closed.
    assert main(["--seed", "1", "extract", anomalies, *LARGE, "--trace", "-"]) == 0
    spans = []
    for line in capsys.readouterr().out.splitlines():
        try:
            spans.append(json.loads(line))
        except ValueError:
            continue  # extraction report text, not a span
    assert spans, "no trace spans on stdout"
    keys = {
        "trace_id", "span_id", "parent_id", "name", "start", "end",
        "attributes", "events",
    }
    for span in spans:
        assert keys <= set(span), f"span missing keys: {span}"
    roots = [s for s in spans if s["name"] == "session.run"]
    assert len(roots) == 1 and roots[0]["end"] is not None
    assert any(s["name"] == "session.interval" for s in spans)

    # The Chrome trace-event export loads as one JSON document.
    chrome = tmp_path / "trace.chrome.json"
    assert main([
        "--seed", "1", "extract", anomalies, *LARGE,
        "--trace", str(chrome), "--trace-format", "chrome",
    ]) == 0
    doc = json.loads(chrome.read_text())
    assert doc["displayTimeUnit"] == "ms"
    assert any(e["name"] == "session.run" for e in doc["traceEvents"])

    # Provenance: explain the top-ranked incident of a fleet store.
    store = str(fleet_run[2] / "link0.db")
    capsys.readouterr()
    assert main(["incidents", store, "--top", "1", "--format", "json"]) == 0
    top_id = json.loads(capsys.readouterr().out)[0]["incident_id"]
    assert main(["incidents", store, "explain", str(top_id)]) == 0
    explained = capsys.readouterr().out
    assert "contributing intervals:" in explained
    assert "detector votes by feature:" in explained
    # Unknown ids keep the exit-2 error contract.
    assert main(["incidents", store, "explain", "999999"]) == 2


def test_metrics_smoke(tmp_path, capsys):
    """``--metrics -``: every Prometheus sample belongs to a declared
    ``# TYPE`` family and carries a number."""
    trace = _generate(tmp_path / "metrics-smoke.csv", 6)
    capsys.readouterr()
    assert main(["extract", trace, *SMALL, "--metrics", "-"]) == 0
    text = capsys.readouterr().out
    prom = text[text.index("# HELP"):]
    types = {}
    for line in prom.splitlines():
        assert line, "blank line in exposition output"
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, metric_type = line.split(" ", 3)
            assert metric_type in ("counter", "gauge", "histogram")
            types[name] = metric_type
            continue
        name = line.split("{", 1)[0].split(" ", 1)[0]
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            stripped = name[: -len(suffix)]
            if name.endswith(suffix) and stripped in types:
                base = stripped
        assert base in types, f"sample {name} has no # TYPE"
        float(line.rsplit(" ", 1)[1])
    for expected in (
        "repro_io_rows_parsed_total",
        "repro_intervals_processed_total",
        "repro_stage_seconds",
    ):
        assert expected in types, f"missing {expected}"
