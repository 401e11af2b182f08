"""CLI metrics export: ``--metrics`` / ``--metrics-format``."""

import json

import pytest

from repro.cli import main

_ARGS = (
    "--bins", "256",
    "--training", "16",
    "--min-support", "300",
)


def _prometheus_schema_check(text: str) -> dict:
    """Minimal exposition-format validation; returns name -> type."""
    types: dict[str, str] = {}
    for line in text.splitlines():
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
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                base = name[: -len(suffix)]
        assert base in types, f"sample {name} has no # TYPE"
        value = line.rsplit(" ", 1)[1]
        assert value == "NaN" or float(value) is not None
    return types


@pytest.fixture(scope="module")
def csv_trace(tmp_path_factory, ddos_trace):
    from repro.flows import write_csv

    path = tmp_path_factory.mktemp("cli-metrics") / "trace.csv"
    write_csv(ddos_trace.flows, str(path))
    return str(path)


class TestStreamMetrics:
    def test_prom_to_stdout(self, csv_trace, capsys):
        assert main(
            ["--seed", "1", "extract", csv_trace, *_ARGS, "--metrics", "-"]
        ) == 0
        out = capsys.readouterr().out
        prom = out[out.index("# HELP"):]
        types = _prometheus_schema_check(prom)
        assert types["repro_io_rows_parsed_total"] == "counter"
        assert types["repro_intervals_processed_total"] == "counter"
        assert types["repro_stage_seconds"] == "histogram"
        assert 'pipeline="default"' in prom

    def test_prom_to_file(self, csv_trace, tmp_path, capsys):
        target = tmp_path / "metrics.prom"
        assert main(
            ["--seed", "1", "extract", csv_trace, *_ARGS,
             "--metrics", str(target)]
        ) == 0
        types = _prometheus_schema_check(target.read_text())
        assert "repro_flows_processed_total" in types
        # The human summary still lands on stdout, without the metrics.
        out = capsys.readouterr().out
        assert "# HELP" not in out

    def test_json_format(self, csv_trace, tmp_path):
        target = tmp_path / "metrics.json"
        assert main(
            ["--seed", "1", "extract", csv_trace, *_ARGS,
             "--metrics", str(target), "--metrics-format", "json"]
        ) == 0
        snap = json.loads(target.read_text())
        names = [m["name"] for m in snap["metrics"]]
        assert names == sorted(names)
        assert "repro_io_rows_parsed_total" in names

    def test_no_flag_no_export(self, csv_trace, capsys):
        assert main(
            ["--seed", "1", "extract", csv_trace, *_ARGS]
        ) == 0
        assert "# HELP" not in capsys.readouterr().out


class TestFleetMetrics:
    def test_per_pipeline_labels_in_prometheus(
        self, csv_trace, tmp_path, capsys
    ):
        target = tmp_path / "fleet.prom"
        assert main(
            ["--seed", "1", "fleet", csv_trace, *_ARGS,
             "--pipelines", "2", "--metrics", str(target)]
        ) == 0
        text = target.read_text()
        types = _prometheus_schema_check(text)
        assert types["repro_fleet_routed_rows_total"] == "counter"
        assert 'pipeline="link0"' in text
        assert 'pipeline="link1"' in text
        # Throughput, late-drop, and stage-timing metrics all present
        # (the acceptance criterion's catalog).
        assert "repro_flows_processed_total" in types
        assert "repro_assembler_late_dropped_total" in types
        assert "repro_stage_seconds" in types

    def test_fleet_conservation_from_cli(self, csv_trace, tmp_path):
        target = tmp_path / "fleet.json"
        assert main(
            ["--seed", "1", "fleet", csv_trace, *_ARGS,
             "--pipelines", "2", "--metrics", str(target),
             "--metrics-format", "json"]
        ) == 0
        snap = json.loads(target.read_text())
        by_name = {m["name"]: m for m in snap["metrics"]}
        fed = by_name["repro_fleet_fed_rows_total"]["samples"][0]["value"]
        routed = sum(
            s["value"]
            for s in by_name["repro_fleet_routed_rows_total"]["samples"]
        )
        assert fed == routed > 0


class TestExtractMetrics:
    def test_extract_exports_metrics(self, tmp_path, capsys):
        out = tmp_path / "trace.npz"
        main(
            ["generate", "--intervals", "4", "--flows-per-interval", "200",
             "--out", str(out)]
        )
        capsys.readouterr()
        target = tmp_path / "metrics.prom"
        assert main(
            ["extract", str(out), "--bins", "64", "--training", "3",
             "--min-support", "50", "--metrics", str(target)]
        ) == 0
        types = _prometheus_schema_check(target.read_text())
        assert "repro_intervals_processed_total" in types
