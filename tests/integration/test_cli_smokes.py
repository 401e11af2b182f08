"""The CLI smoke checks, run in-process through ``repro.cli.main``.

Each test is one former CI smoke step, assertion for assertion: the
exit codes, the refusal wording and the absence of a traceback (a
traceback in-process is an exception escaping ``main``).  Only the
``serve`` runs are child processes, under timeouts: the refusals'
check is that no socket is ever bound, the service smoke's is a real
daemon over HTTP that is killed with ``SIGKILL`` and resumed.
"""

import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
import urllib.request
import warnings
import zipfile
from pathlib import Path

import pytest

import repro
import repro.api as api
from repro.cli import main
from repro.federation import split_trace
from repro.federation.digest import DIGEST_VERSION
from repro.flows.io import read_trace, write_npz
from repro.service.checkpoint import (
    CHECKPOINT_VERSION,
    fleet_checkpoint,
    write_checkpoint,
)

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


#: One deployment file, every verb: dry-run, replay, collect.
DEPLOY_TOML = """\
[detector]
bins = 64
training_intervals = 3

[mining]
min_support = 50

[fleet]
route = "dst_ip%2"

[fleet.pipelines.upstream]

[fleet.pipelines.peering.mining]
min_support = 40

[service]
port = 0
checkpoint_every = 2

[federation]
sites = ["east", "west"]
min_support = 50
"""


@pytest.fixture(scope="module")
def deploy(tmp_path_factory):
    """The deployment file and its 6x300 trace, shared by the
    run-config, resume refusal and federation store refusal smokes."""
    root = tmp_path_factory.mktemp("deploy")
    toml = root / "deploy.toml"
    toml.write_text(DEPLOY_TOML)
    trace = _generate(root / "deploy.csv", 6)
    return toml, trace


def _refused(capsys, argv, *fragments):
    """Run ``argv`` in-process: exit 2, every fragment on stderr, no
    traceback.  Returns stderr."""
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    for fragment in fragments:
        assert fragment in err, (fragment, err)
    assert "Traceback" not in err
    return err


#: A child process's environment: it imports the ``repro`` under test.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}


def _serve_refused(*argv):
    """``serve`` in a child process, under a timeout: a refusal must
    come before any socket is bound, so a daemon that starts serving
    fails the test instead of hanging it.  Returns stderr."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", *map(str, argv)],
        capture_output=True, text=True, timeout=60, env=CHILD_ENV,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stderr


def _collect(trace, site, out, toml):
    return main([
        "federate", "collect", trace, "--site", site, "--out", str(out),
        "--config", str(toml),
    ])


def test_deployment_run_config_smoke(deploy, tmp_path, capsys, monkeypatch):
    """Every verb reads the one deployment file; removed knobs, an
    unknown digest key, a torn digest line, a typo in an unused table
    and the removed ``topk`` verb are refused with exit 2."""
    toml, trace = deploy
    assert main(["extract", trace, "--config", str(toml)]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(Path(trace).read_text()))
    assert main(["extract", "-", "--config", str(toml)]) == 0
    assert main(["fleet", trace, "--config", str(toml)]) == 0
    east = tmp_path / "deploy-east.jsonl"
    assert _collect(trace, "east", east, toml) == 0

    # The removed parallel knobs are refused by name - a flag by
    # argparse, a table by the config reader - with exit 2, ...
    capsys.readouterr()
    with pytest.raises(SystemExit) as jobs:
        main([
            "extract", "--alarms-only", trace, "--config", str(toml),
            "--jobs", "2",
        ])
    assert jobs.value.code == 2
    err = capsys.readouterr().err
    assert "--jobs" in err and "Traceback" not in err
    parallel = tmp_path / "parallel.toml"
    parallel.write_text(DEPLOY_TOML + "\n[parallel]\njobs = 2\n")
    _refused(
        capsys, ["extract", trace, "--config", str(parallel)],
        "unknown config section 'parallel'",
    )
    # ... so is the count-min geometry digests no longer carry, ...
    cm = tmp_path / "cm.toml"
    cm.write_text(DEPLOY_TOML.replace(
        'sites = ["east", "west"]\n', 'sites = ["east", "west"]\ncm_width = 1024\n'
    ))
    assert "\ncm_width = 1024\n" in cm.read_text()
    _refused(
        capsys,
        ["federate", "collect", trace, "--site", "east",
         "--out", str(tmp_path / "cm.jsonl"), "--config", str(cm)],
        "unknown key 'cm_width'",
    )
    # ... a merge of both sites' digest files must name both, ...
    west = tmp_path / "deploy-west.jsonl"
    assert _collect(trace, "west", west, toml) == 0
    capsys.readouterr()
    assert main(
        ["federate", "merge", str(east), str(west), "--config", str(toml)]
    ) == 0
    merged = capsys.readouterr().out
    assert "east" in merged and "west" in merged
    # ... and a truncated digest line is refused naming file:line.
    lines = east.read_text().splitlines()
    torn = tmp_path / "torn.jsonl"
    torn.write_text(f"{lines[0]}\n{lines[1][:200]}\n")
    _refused(
        capsys, ["federate", "merge", str(torn), "--config", str(toml)],
        f"{torn}:2: ",
    )
    # A typo in a table the verb does not use is still refused, with
    # the file and a hint: exit 2, not a traceback.
    typo = tmp_path / "typo.toml"
    typo.write_text(DEPLOY_TOML.replace("\nport = 0\n", "\nprt = 0\n"))
    _refused(
        capsys, ["fleet", trace, "--config", str(typo)],
        str(typo), "did you mean",
    )
    # The removed topk verb is an argparse refusal: exit 2.
    with pytest.raises(SystemExit) as topk:
        main(["topk", trace])
    assert topk.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'topk'" in err and "Traceback" not in err


def test_resume_refusal_smoke(deploy, tmp_path, capsys):
    """A checkpoint of the previous schema version, a digest file of
    the previous wire version and a checkpoint with a counter flipped
    to a boolean are refused: exit 2, the versions or the field named."""
    toml, trace = deploy
    stores = tmp_path / "resume-stores"
    # A checkpoint of the deployment's fleet, written the way the
    # daemon writes it ...
    checkpoint = tmp_path / "resume.ckpt"
    with api.open_fleet(str(toml), store_dir=str(stores)) as fleet:
        for chunk in api.iter_csv(trace):
            fleet.feed(chunk)
        write_checkpoint(str(checkpoint), fleet_checkpoint(fleet, 1))
    # ... written under the previous schema version is refused at
    # --resume, both versions named.
    old, new = CHECKPOINT_VERSION - 1, CHECKPOINT_VERSION
    older = tmp_path / f"resume-v{old}.ckpt"
    older.write_text(re.sub(
        f'"version":{new}}}$', f'"version":{old}}}',
        checkpoint.read_text(), flags=re.M,
    ))
    assert re.search(f'"version":{old}}}$', older.read_text(), re.M)
    err = _serve_refused(
        "--config", toml, "--store-dir", stores, "--checkpoint", older,
        "--resume",
    )
    assert re.search(f"^error: .*version {old} != {new}", err, re.M)

    # So is a digest file of the previous wire version at merge.
    east = tmp_path / "deploy-east.jsonl"
    assert _collect(trace, "east", east, toml) == 0
    old, new = DIGEST_VERSION - 1, DIGEST_VERSION
    digest = tmp_path / f"digest-v{old}.jsonl"
    digest.write_text(re.sub(
        f'"version":{new}}}$', f'"version":{old}}}',
        east.read_text(), flags=re.M,
    ))
    assert re.search(f'"version":{old}}}$', digest.read_text(), re.M)
    err = _refused(
        capsys, ["federate", "merge", str(digest), "--config", str(toml)],
    )
    assert re.search(f"^error: .*version {old} != {new}", err, re.M)

    # A current checkpoint with one counter flipped to a boolean is
    # refused at --resume, before any socket is bound: the field named.
    checkpoint.write_text(re.sub(
        r'"flows_seen":[0-9]*', '"flows_seen":true', checkpoint.read_text()
    ))
    assert '"flows_seen":true' in checkpoint.read_text()
    err = _serve_refused(
        "--config", toml, "--store-dir", stores, "--checkpoint", checkpoint,
        "--resume",
    )
    assert re.search("^error: ", err, re.M)
    assert "flows_seen" in err


def test_federation_store_refusal_smoke(deploy, tmp_path):
    """The deployment federates but names no ``[federation]
    store_path``: its reports would live in memory only, so
    checkpointing it is refused before any socket is bound, and no
    checkpoint file is written."""
    toml, _ = deploy
    checkpoint = tmp_path / "fed.ckpt"
    err = _serve_refused(
        "--config", toml, "--store-dir", tmp_path / "fed-stores",
        "--checkpoint", checkpoint,
    )
    assert re.search(r"^error: .*\[federation\] store_path", err, re.M)
    assert not checkpoint.exists()


def _json_run(capsys, argv):
    """Run ``argv`` in-process (exit 0) and parse its stdout."""
    capsys.readouterr()
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_federation_smoke(anomalies, tmp_path, capsys):
    """Two sites' digests merge to the concatenated capture's answer,
    the federated stores replay to the live ranking (a clean tail ages
    them), and digests of another sketch shape are refused with exit
    2."""
    flows = read_trace(anomalies)
    parts = split_trace(flows, ("east", "west"), "dst_ip%2")
    write_npz(parts["east"], tmp_path / "fed-east.npz")
    write_npz(parts["west"], tmp_path / "fed-west.npz")
    write_npz(flows, tmp_path / "fed-all.npz")
    flags = ["--bins", "64", "--training", "16"]
    for site in ("east", "west", "all"):
        assert main([
            "federate", "collect", str(tmp_path / f"fed-{site}.npz"),
            "--site", site, "--out", str(tmp_path / f"{site}.jsonl"), *flags,
        ]) == 0

    def merge(run, *sites):
        return _json_run(capsys, [
            "federate", "merge", *(str(tmp_path / f"{s}.jsonl") for s in sites),
            *flags, "--min-support", "50", "--format", "json",
            "--store", str(tmp_path / f"fed-{run}.db"),
        ])

    merged = merge("merged", "east", "west")
    single = merge("single", "all")
    # A third run stops where a clean tail follows an attack, so the
    # store has report-free intervals to age through.
    reported = [entry["report"] is not None for entry in merged["intervals"]]
    cut = max(
        k for k in range(4, len(reported) + 1)
        if any(reported[: k - 3]) and not any(reported[k - 3 : k])
    )
    for site in ("east", "west"):
        # One digest per line, line k = interval k.
        lines = (tmp_path / f"{site}.jsonl").read_text().splitlines(True)
        (tmp_path / f"{site}-head.jsonl").write_text("".join(lines[:cut]))
    head = merge("head", "east-head", "west-head")

    assert merged["sites"] == ["east", "west"]
    assert merged["digests"] == 2 * single["digests"]
    alarmed = [i for i in merged["intervals"] if i["alarmed_features"]]
    assert alarmed, "federated run never alarmed"
    assert not any(i["stragglers"] for i in merged["intervals"])

    # Merging is exact: detection and ranking over the merged sketches
    # must match the concatenated-trace run.
    def comparable(doc):
        keys = ("interval", "flow_count", "alarmed_features", "report")
        return [{key: entry[key] for key in keys} for entry in doc["intervals"]]

    assert comparable(merged) == comparable(single)
    assert json.dumps(merged["incidents"], sort_keys=True) == (
        json.dumps(single["incidents"], sort_keys=True)
    ), "merged ranking diverged from the concatenated run"
    assert merged["incidents"], "no federated incidents ranked"

    # A store written by the federator replays to the same lifecycle
    # the live federator reported (a finished attack is closed in both,
    # not "active" forever in the store).
    def lifecycle(incidents):
        return [(i["incident_id"], i["state"], i["last_seen"]) for i in incidents]

    last = head["intervals"][-1]["interval"]
    assert not any(
        entry["report"] for entry in head["intervals"][-3:]
    ), "head run lost its clean tail"
    assert any(
        i["state"] == "closed" and i["last_seen"] >= last - 8
        for i in head["incidents"]
    ), "no attack finished inside the head run's tail"
    for run, doc in (("merged", merged), ("single", single), ("head", head)):
        stored = _json_run(
            capsys,
            ["incidents", str(tmp_path / f"fed-{run}.db"), "--format", "json"],
        )
        assert lifecycle(stored) == lifecycle(doc["incidents"]), (
            f"{run}: store replay disagrees with the live ranking"
        )

    # Digests collected under different sketch parameters must be
    # refused with the exit-2 error contract, not merged.
    assert main([
        "federate", "collect", str(tmp_path / "fed-west.npz"),
        "--site", "west", "--out", str(tmp_path / "west-narrow.jsonl"),
        "--bins", "128", "--training", "16",
    ]) == 0
    assert main([
        "federate", "merge", str(tmp_path / "east.jsonl"),
        str(tmp_path / "west-narrow.jsonl"), *flags, "--min-support", "50",
    ]) == 2


@contextlib.contextmanager
def _daemon(root, tag, resume=False):
    """A 2-pipeline ``serve`` daemon in a child process, checkpointing
    before every ack: yields ``(proc, port)``.  A daemon that hangs is
    killed after 120 s; one still running at the end is killed."""
    cmd = [
        sys.executable, "-m", "repro", "serve", *LARGE,
        "--pipelines", "2", "--route", "dst_ip%2",
        "--store-dir", str(root / f"service-stores-{tag}"),
        "--checkpoint", str(root / f"service-{tag}.ckpt"),
        "--checkpoint-every", "1", "--port", "0",
    ]
    if resume:
        cmd.append("--resume")
    proc = subprocess.Popen(cmd, stderr=subprocess.PIPE, text=True, env=CHILD_ENV)
    watchdog = threading.Timer(120, proc.kill)
    watchdog.start()
    # The daemon announces its bound port on stderr; the rest of the
    # pipe is drained in the background so later log lines can never
    # block its event loop.
    drain = threading.Thread(target=proc.stderr.read, daemon=True)
    try:
        line = proc.stderr.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        assert match, f"no port announcement: {line!r}"
        drain.start()
        yield proc, int(match.group(1))
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30)
        if drain.is_alive():
            drain.join(timeout=30)
        proc.stderr.close()


def _call(port, path, body=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=body,
        method="POST" if body is not None else "GET",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.read()


def _stop(proc):
    """Drain the daemon gracefully: ``SIGTERM``, exit status 0."""
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == 0


def test_service_smoke(anomalies, tmp_path):
    """Daemon round trip: ingest over HTTP, query, ``kill -9`` mid
    stream, restart ``--resume``, and demand the merged ranking match
    an uninterrupted daemon byte for byte."""
    with open(anomalies) as handle:
        header, *rows = handle.read().splitlines()
    n_chunks = 8
    per = (len(rows) + n_chunks - 1) // n_chunks
    chunks = [
        ("\n".join([header, *rows[i * per:(i + 1) * per]]) + "\n").encode()
        for i in range(n_chunks)
    ]

    # Uninterrupted baseline daemon: feed everything, query all
    # endpoints, drain gracefully.
    with _daemon(tmp_path, "a") as (proc, port):
        for i, chunk in enumerate(chunks):
            ack = json.loads(_call(port, "/ingest", chunk))
            assert ack["sequence"] == i + 1, ack
            assert ack["checkpointed_sequence"] == i + 1, ack
        listing = json.loads(_call(port, "/incidents"))
        assert listing["count"] == len(listing["incidents"]) > 0
        assert all(
            "id" in e and "score" in e and "pipeline" in e
            for e in listing["incidents"]
        )
        detail = json.loads(
            _call(port, f"/incidents/{listing['incidents'][0]['id']}")
        )
        assert detail["provenance"], "detail had no provenance"
        metrics = _call(port, "/metrics").decode()
        assert "repro_service_requests_total" in metrics
        assert "repro_service_ingest_rows_total" in metrics
        health = json.loads(_call(port, "/healthz"))
        assert health["sequence"] == n_chunks, health
        baseline = listing["incidents"]
        _stop(proc)

    # Second daemon: kill -9 mid-stream.  The checkpoint (written
    # before each ack at --checkpoint-every 1) is the only thing that
    # survives.
    with _daemon(tmp_path, "b") as (proc, port):
        for chunk in chunks[:4]:
            _call(port, "/ingest", chunk)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

    with _daemon(tmp_path, "b", resume=True) as (proc, port):
        health = json.loads(_call(port, "/healthz"))
        resumed = health["sequence"]
        assert resumed == 4, health
        for chunk in chunks[resumed:]:
            _call(port, "/ingest", chunk)
        merged = json.loads(_call(port, "/incidents"))["incidents"]
        _stop(proc)
    assert json.dumps(merged, sort_keys=True) == (
        json.dumps(baseline, sort_keys=True)
    ), "resumed ranking diverged from the uninterrupted run"


def test_generate_picks_the_writer_by_extension(tmp_path, capsys):
    """``generate --out`` follows the readers' extension rule: any case
    of ``.npz`` is an npz archive that ``extract`` reads back, and an
    unknown extension is refused before anything is generated."""
    upper = _generate(tmp_path / "t.NPZ", 6)
    assert zipfile.is_zipfile(upper)
    assert os.listdir(tmp_path) == ["t.NPZ"]
    assert main(["extract", upper, *SMALL]) == 0
    pcap = tmp_path / "t.pcap"
    capsys.readouterr()
    assert main(["generate", "--intervals", "6", "--out", str(pcap)]) == 2
    out, err = capsys.readouterr()
    assert "unknown trace format (expected one of: .csv, .npz)" in err
    assert "Traceback" not in err
    assert out == ""
    assert not pcap.exists()


def test_extract_refuses_a_file_that_is_not_npz(tmp_path, capsys):
    """CSV bytes, a truncated zip and a non-zip under a ``.npz`` name
    are each a typed refusal naming the file: exit 2, no traceback."""
    archive = Path(_generate(tmp_path / "good.npz", 6)).read_bytes()
    bad = tmp_path / "bad.npz"
    for content in (
        b"src_ip,dst_ip\r\n1,2\r\n",
        archive[: len(archive) // 2],
        bytes(range(256)),
    ):
        bad.write_bytes(content)
        _refused(
            capsys, ["extract", str(bad), *SMALL],
            f"error: {bad}: not a readable npz archive",
        )


def test_generate_anomalies_on_a_short_trace(tmp_path, capsys):
    """``--with-anomalies`` lays the two-week schedule over the
    ``--intervals`` generated: 137 (the fewest) carry all 36 events,
    136 are refused naming the flag and the minimum."""
    argv = [
        "generate", "--flows-per-interval", "100", "--scale", "0.01",
        "--with-anomalies", "--intervals",
    ]
    capsys.readouterr()
    assert main([*argv, "137", "--out", str(tmp_path / "t.npz")]) == 0
    assert capsys.readouterr().out.count("  event ") == 36
    _refused(
        capsys, [*argv, "136", "--out", str(tmp_path / "u.npz")],
        "--intervals", "at least 137",
    )
    assert not (tmp_path / "u.npz").exists()
