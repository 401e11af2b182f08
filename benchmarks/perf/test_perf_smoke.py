"""Smoke test of the perf ledger: names, units, oracle - never timings.

Runs ``run.py --smoke`` once (1/16 scale, one traced run per workload
in its own child process, the same code paths and oracle as the full
ledger) and checks that every workload and every named metric comes
back with the right unit and no failed operation.  No assertion looks
at a measured time, so the test cannot flake on a busy machine.
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")


def _load_spec():
    location = importlib.util.spec_from_file_location(
        "perf_ledger_spec", os.path.join(HERE, "spec.py")
    )
    module = importlib.util.module_from_spec(location)
    location.loader.exec_module(module)
    return module


spec = _load_spec()

#: Layers that must have done work on each workload: the smoke run has
#: to reach the same code as the full one.
MUST_BE_BUSY = {
    "paper_two_week": (
        "flows.window_s", "streaming.assemble_s", "sketch.update_s",
        "detection.observe_s", "detection.score_s", "detection.alarms",
        "core.prefilter_s", "core.triage_s", "mining.encode_s",
        "mining.mine_s", "incidents.append_s", "incidents.note_s",
        "incidents.read_s", "incidents.rank_s", "alarm_ms_p50",
        "obs.stage_detection_s", "obs.stage_mining_s",
    ),
    "csv_stream": (
        "flows.parse_s", "flows.parse_rows", "flows.write_csv_s",
        "streaming.assemble_s", "detection.observe_s", "mining.mine_s",
    ),
    "forensic_sweep": (
        "core.prefilter_s", "mining.encode_s", "mining.mine_s",
        "mining.apriori_s", "mining.eclat_s", "mining.fpgrowth_s",
        "mining.son_s",
    ),
    "service_http": (
        "flows.parse_body_s", "fleet.route_s", "fleet.feed_s",
        "fleet.http_cost_factor", "service.handle_s", "service.requests",
        "service.checkpoint_s", "service.checkpoint_writes",
        "service.checkpoint_bytes", "service.resume_s", "service.query_s",
        "incidents.append_s",
    ),
    "federation_4site": (
        "federation.summarize_s", "federation.encode_s",
        "federation.wire_bytes", "federation.decode_s",
        "federation.merge_s", "federation.add_s", "federation.released",
        "sketch.update_s", "detection.score_s", "wire_bytes_per_flow",
    ),
}


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf-smoke") / "ledger.json"
    done = subprocess.run(
        [sys.executable, RUN, "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as handle:
        return json.load(handle), done.stdout


def test_every_workload_reports_its_end_to_end_metrics(ledger):
    doc, _ = ledger
    assert list(doc["workloads"]) == list(spec.WORKLOADS)
    for workload, entry in doc["workloads"].items():
        found = entry["end_to_end"]
        for metric in spec.END_TO_END:
            if workload not in metric.workloads:
                assert metric.name not in found, (workload, metric.name)
                continue
            if metric.name == "op_ms_p95" and metric.name not in found:
                # 1/16 scale pools fewer than the 200 ops a p95 needs;
                # the full ledger reports it, the smoke run may not.
                continue
            assert found[metric.name]["unit"] == metric.unit
            assert len(found[metric.name]["values"]) == 1
            if metric.name != "op_fail_ratio":
                assert found[metric.name]["values"][0] > 0
        assert found["op_fail_ratio"]["values"] == [0.0], workload
        assert entry["failed"] == 0 and entry["attempted"] > 0


def test_every_layer_metric_is_named_with_its_unit(ledger):
    doc, _ = ledger
    for workload, entry in doc["workloads"].items():
        layers = entry["per_layer"]
        assert list(layers) == list(spec.PER_LAYER_NAMES), workload
        for metric in spec.PER_LAYER:
            assert layers[metric.name]["unit"] == metric.unit
        for name in MUST_BE_BUSY[workload]:
            assert layers[name]["value"] > 0, (workload, name)


def test_every_metric_is_printed_by_name_and_unit(ledger):
    _, printed = ledger
    for workload in spec.WORKLOADS:
        assert f"== {workload}:" in printed
    for metric in spec.GATED:
        assert re.search(
            rf"^\s+{metric.name}\s+[\d.]+ {re.escape(metric.unit)}\s",
            printed, re.MULTILINE,
        ), metric.name
    assert "cross-check detection: outside" in printed


def test_benchmark_json_is_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        committed = json.load(handle)
    assert committed == spec.benchmark_json(committed["run_seconds"])
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")
    names = [
        m["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for m in committed[key]
    ]
    assert len(names) == len(set(names))
    assert all(name.fullmatch(n) for n in names)
    for metric in committed["end_to_end"] + committed["per_layer"]:
        assert unit.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower",
              "bound": m["bound"]}
        for m in committed["end_to_end"]
    )
    for workload in committed["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 2 <= len(committed["workloads"]) <= 8
    assert len(committed["per_layer"]) <= 128


def test_driver_form_prints_one_result_object():
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "forensic_sweep", "--seed", "3",
         "--seconds", "0.2", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m.name for m in spec.GATED)


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "csv_stream", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
