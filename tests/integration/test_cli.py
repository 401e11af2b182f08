"""Integration tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--intervals", "3", "--out", "x.npz"]
        )
        assert args.intervals == 3
        assert args.out == "x.npz"


class TestCommands:
    def test_generate_and_detect_round_trip(self, tmp_path, capsys):
        out = tmp_path / "trace.npz"
        code = main(
            [
                "generate",
                "--intervals", "4",
                "--flows-per-interval", "300",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert "wrote" in captured.out

        code = main(
            [
                "extract", str(out), "--alarms-only",
                "--bins", "64",
                "--training", "3",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "intervals" in captured.out

    def test_generate_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(
            ["generate", "--intervals", "2", "--flows-per-interval", "100",
             "--out", str(out)]
        ) == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("src_ip,")

    def test_table2_command(self, capsys):
        code = main(["table2", "--scale", "0.01"])
        assert code == 0
        captured = capsys.readouterr()
        assert "min support" in captured.out
        assert "dstPort=7000" in captured.out

    def test_extract_command(self, tmp_path, capsys):
        out = tmp_path / "trace.npz"
        main(
            ["generate", "--intervals", "4", "--flows-per-interval", "200",
             "--out", str(out)]
        )
        code = main(
            [
                "extract", str(out),
                "--bins", "64",
                "--training", "3",
                "--min-support", "50",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("verb", ["topk", "detect", "stream"])
    def test_unknown_verb_exits_2(self, verb, capsys):
        """``topk``, ``detect`` and ``stream`` were verbs once; like any
        unknown verb each is an argparse usage error now, not a
        traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main([verb, "x.csv"])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{verb}'" in capsys.readouterr().err

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "repro-extract" in proc.stdout

    def test_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,trace\n")
        code = main(["extract", str(bad), "--alarms-only"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_extension_rejected(self, tmp_path, capsys):
        bad = tmp_path / "trace.pcap"
        bad.write_text("whatever")
        code = main(["extract", str(bad), "--alarms-only"])
        assert code == 2
        assert "unknown trace format" in capsys.readouterr().err


class TestExtractSources:
    @pytest.fixture(scope="class")
    def csv_trace(self, tmp_path_factory, ddos_trace):
        from repro.flows import write_csv

        path = tmp_path_factory.mktemp("stream-cli") / "trace.csv"
        write_csv(ddos_trace.flows, str(path))
        return str(path)

    _STREAM_ARGS = [
        "--bins", "256", "--training", "16", "--min-support", "300",
    ]

    def test_npz_matches_chunked_csv(self, csv_trace, tmp_path, capsys):
        """A ``.npz`` fed interval by interval and the same trace as a
        ``.csv`` parsed in chunks print the same reports and summary."""
        from repro.flows import read_csv, write_npz

        npz = tmp_path / "trace.npz"
        write_npz(read_csv(csv_trace), str(npz))
        assert main(
            ["--seed", "1", "extract", str(npz), *self._STREAM_ARGS]
        ) == 0
        whole = capsys.readouterr().out
        assert "interval 24" in whole
        assert whole.endswith(" extractions\n")
        assert main(
            ["--seed", "1", "extract", csv_trace, *self._STREAM_ARGS,
             "--chunk-rows", "700"]
        ) == 0
        assert capsys.readouterr().out == whole

    def test_stream_from_stdin(self, csv_trace, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO(open(csv_trace).read())
        )
        assert main(
            ["--seed", "1", "extract", "-", *self._STREAM_ARGS]
        ) == 0
        assert "interval 24" in capsys.readouterr().out

    def test_stream_window_flag(self, csv_trace, capsys):
        assert main(
            ["--seed", "1", "extract", csv_trace, *self._STREAM_ARGS,
             "--window", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "windows mined" in out

    @pytest.mark.parametrize("suffix, flags", [
        (".csv", []),
        (".npz", []),
        (".npz", ["--alarms-only"]),
    ])
    def test_stream_origin_flag_for_absolute_timestamps(
        self, suffix, flags, csv_trace, tmp_path, capsys
    ):
        """Epoch-style timestamps need --origin, whatever the source;
        without it the gap guard fails fast instead of grinding
        millions of empty intervals."""
        from repro.flows import read_csv, write_csv, write_npz
        from repro.flows.table import ALL_COLUMNS, FlowTable

        flows = read_csv(csv_trace)
        epoch = 1.75e9
        shifted = FlowTable(
            {
                name: (
                    flows.column(name) + epoch
                    if name == "start"
                    else flows.column(name)
                )
                for name in ALL_COLUMNS
            }
        )
        path = tmp_path / f"epoch{suffix}"
        (write_csv if suffix == ".csv" else write_npz)(shifted, str(path))

        assert main(["extract", str(path), *self._STREAM_ARGS, *flags]) == 2
        assert "max_gap_intervals" in capsys.readouterr().err

        assert main(
            ["--seed", "1", "extract", str(path), *self._STREAM_ARGS,
             *flags, "--origin", str(epoch)]
        ) == 0
        assert "interval 24" in capsys.readouterr().out

    def test_reads_npz_and_refuses_unknown_source(self, tmp_path, capsys):
        """``extract`` reads a ``.npz``; a source of no known format is
        refused before the session creates its store."""
        from repro.flows import FlowTable, write_npz

        path = tmp_path / "trace.npz"
        write_npz(FlowTable.empty(), str(path))
        assert main(["extract", str(path)]) == 0
        assert "0 intervals, 0 flows" in capsys.readouterr().out

        store = tmp_path / "s.db"
        assert main(["extract", str(tmp_path / "x.txt"),
                     "--store", str(store)]) == 2
        assert "unknown trace format" in capsys.readouterr().err
        assert not store.exists()

    @pytest.mark.parametrize("flag", ["--store", "--metrics", "--trace"])
    def test_alarms_only_refuses_file_outputs(self, flag, csv_trace,
                                              tmp_path, capsys):
        """``--alarms-only`` writes no file, so a typed output flag is
        refused by name rather than ignored."""
        out = tmp_path / "out"
        assert main(
            ["extract", csv_trace, "--alarms-only", flag, str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert f"error: {flag} " in err
        assert "--alarms-only" in err
        assert not out.exists()

    def test_stream_malformed_input_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,trace\n1,2,3\n")
        assert main(["extract", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stream_malformed_mid_file_nonzero_exit(
        self, csv_trace, tmp_path, capsys
    ):
        bad = tmp_path / "truncated.csv"
        with open(csv_trace) as src:
            lines = src.readlines()[:50]
        lines.append("1,2,3\n")  # ragged row after valid chunks
        bad.write_text("".join(lines))
        assert main(
            ["extract", str(bad), *self._STREAM_ARGS, "--chunk-rows", "10"]
        ) == 2
        assert "fields" in capsys.readouterr().err


class TestJsonFormat:
    @pytest.fixture(scope="class")
    def trace_npz(self, tmp_path_factory, ddos_trace):
        from repro.flows import write_npz

        path = tmp_path_factory.mktemp("json-cli") / "trace.npz"
        write_npz(ddos_trace.flows, str(path))
        return str(path)

    _ARGS = ["--bins", "256", "--training", "16", "--min-support", "300"]

    def test_detect_json(self, trace_npz, capsys):
        assert main(
            ["--seed", "1", "extract", trace_npz, "--alarms-only",
             "--bins", "256", "--training", "16", "--format", "json"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            doc = json.loads(line)
            assert {"interval", "start", "end", "flow_count",
                    "alarmed_features"} <= set(doc)

    def test_extract_json_one_document_per_interval(
        self, trace_npz, capsys
    ):
        assert main(
            ["--seed", "1", "extract", trace_npz, *self._ARGS,
             "--format", "json"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        docs = [json.loads(line) for line in lines]
        assert any(doc["interval"] == 24 for doc in docs)
        for doc in docs:
            assert "itemsets" in doc
            assert doc["min_support"] == 300

    def test_extract_json_matches_report_serialization(
        self, trace_npz, capsys
    ):
        from repro.core.report import ExtractionReport

        assert main(
            ["--seed", "1", "extract", trace_npz, *self._ARGS,
             "--format", "json"]
        ) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            report = ExtractionReport.from_json(line)
            assert report.to_json() == line

    def test_stream_json_summary_on_stderr(
        self, tmp_path, ddos_trace, capsys
    ):
        from repro.flows import write_csv

        path = tmp_path / "trace.csv"
        write_csv(ddos_trace.flows, str(path))
        assert main(
            ["--seed", "1", "extract", str(path), *self._ARGS,
             "--format", "json"]
        ) == 0
        captured = capsys.readouterr()
        for line in captured.out.strip().splitlines():
            json.loads(line)
        assert "intervals" in captured.err


class TestIncidentCommands:
    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory, ddos_trace):
        from repro.flows import write_npz

        tmp = tmp_path_factory.mktemp("incidents-cli")
        trace = tmp / "trace.npz"
        write_npz(ddos_trace.flows, str(trace))
        db = tmp / "incidents.db"
        assert main(
            ["--seed", "1", "extract", str(trace),
             "--bins", "256", "--training", "16",
             "--min-support", "300", "--store", str(db)]
        ) == 0
        return str(db)

    def test_store_flag_persists_reports(self, stored):
        from repro.incidents import IncidentStore

        with IncidentStore(stored) as store:
            assert len(store) > 0
            assert 24 in store.intervals()

    def test_incidents_table_listing(self, stored, capsys):
        assert main(["incidents", stored]) == 0
        out = capsys.readouterr().out
        assert "incidents" in out
        assert "score=" in out

    def test_incidents_json_listing(self, stored, capsys):
        assert main(["incidents", stored, "--format", "json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert docs
        assert {"incident_id", "score", "state"} <= set(docs[0])

    def test_incidents_top_k(self, stored, capsys):
        assert main(
            ["incidents", stored, "--top", "1", "--format", "json"]
        ) == 0
        assert len(json.loads(capsys.readouterr().out)) == 1

    def test_incidents_top_k_header_keeps_total(self, stored, capsys):
        total = len(json.loads(
            (main(["incidents", stored, "--format", "json"]),
             capsys.readouterr().out)[1]
        ))
        assert main(["incidents", stored, "--top", "1"]) == 0
        out = capsys.readouterr().out
        if total > 1:
            # The header must report the store's total, not the slice.
            assert f"top 1 of {total} incidents" in out
        else:
            assert f"{total} incidents" in out

    def test_incidents_explain_detail(self, stored, capsys):
        assert main(
            ["incidents", stored, "--format", "json"]
        ) == 0
        docs = json.loads(capsys.readouterr().out)
        top = docs[0]["incident_id"]
        assert main(
            ["incidents", stored, "explain", str(top), "--format", "json"]
        ) == 0
        detail = json.loads(capsys.readouterr().out)
        assert detail["incident_id"] == top
        assert len(detail["provenance"]) == detail["intervals_seen"]

    def test_incidents_explain_table(self, stored, capsys):
        assert main(["incidents", stored, "explain", "1"]) == 0
        out = capsys.readouterr().out
        assert "contributing intervals:" in out
        assert "}: support " in out  # each interval lists its sets

    def test_explain_bounded_to_own_span(self, tmp_path, capsys):
        """A reappeared incident's drill-down must not print the
        intervals of the earlier, closed incident with the same key."""
        from repro.incidents import IncidentStore
        from tests.incidents.test_store import PORT80, VICTIM, make_report

        db = str(tmp_path / "split.db")
        with IncidentStore(db) as store:
            store.extend([
                make_report(
                    i, [((VICTIM, PORT80), 100 + i, "suspicious")]
                )
                for i in (1, 2, 10, 11)  # gap 8 > quiet_gap 2: two incidents
            ])
        assert main(
            ["incidents", db, "explain", "2", "--format", "json"]
        ) == 0
        detail = json.loads(capsys.readouterr().out)
        assert detail["first_seen"] == 10
        assert [h["interval"] for h in detail["provenance"]] == [10, 11]

    def test_incidents_explain_unknown_id_json(self, stored, capsys):
        assert main(
            ["incidents", stored, "explain", "9999", "--format", "json"]
        ) == 2
        assert "no incident" in capsys.readouterr().err

    def test_incidents_missing_db(self, tmp_path, capsys):
        assert main(
            ["incidents", str(tmp_path / "nope.db")]
        ) == 2
        assert "no incident store" in capsys.readouterr().err

    def test_incidents_unknown_profile(self, stored, capsys):
        assert main(
            ["incidents", stored, "--profile", "nope"]
        ) == 2
        assert "unknown weight profile" in capsys.readouterr().err

    def test_incidents_explain_vote_denominator(self, stored, capsys):
        assert main(
            ["incidents", stored, "--format", "json"]
        ) == 0
        seen = json.loads(capsys.readouterr().out)
        seen = {d["incident_id"]: d["intervals_seen"] for d in seen}
        assert main(["incidents", stored, "explain", "1"]) == 0
        out = capsys.readouterr().out
        assert "detector votes by feature:" in out
        assert f"/{seen[1]} contributing intervals" in out

    def test_incidents_explain_narrative(self, stored, capsys):
        assert main(["incidents", stored, "explain", "1"]) == 0
        out = capsys.readouterr().out
        assert "score components:" in out
        assert "detector votes by feature:" in out
        assert "contributing intervals:" in out
        assert "min-support 300" in out

    def test_incidents_explain_json(self, stored, capsys):
        assert main(
            ["incidents", stored, "explain", "1", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["incident_id"] == 1
        assert doc["provenance"]
        contribution = doc["provenance"][0]
        assert {
            "interval", "support", "hint", "alarmed_features", "votes",
            "input_flows", "selected_flows", "algorithm", "min_support",
        } <= set(contribution)
        assert doc["vote_breakdown"]
        # Votes in the breakdown sum to the per-interval vote counts.
        assert sum(doc["vote_breakdown"].values()) == sum(
            c["votes"] for c in doc["provenance"]
        )

    def test_incidents_explain_unknown_id_exits_2(self, stored, capsys):
        assert main(["incidents", stored, "explain", "9999"]) == 2
        assert "no incident #9999" in capsys.readouterr().err

    def test_incidents_explain_without_id_exits_2(self, stored, capsys):
        assert main(["incidents", stored, "explain"]) == 2
        assert "explain needs an incident id" in capsys.readouterr().err

    def test_stream_store_matches_extract_store(
        self, stored, tmp_path, ddos_trace
    ):
        from repro.flows import write_csv
        from repro.incidents import IncidentStore

        csv = tmp_path / "trace.csv"
        write_csv(ddos_trace.flows, str(csv))
        db = tmp_path / "stream.db"
        assert main(
            ["--seed", "1", "extract", str(csv),
             "--bins", "256", "--training", "16",
             "--min-support", "300", "--store", str(db)]
        ) == 0
        with IncidentStore(stored) as a, IncidentStore(str(db)) as b:
            assert [r.to_json() for r in a.reports()] == [
                r.to_json() for r in b.reports()
            ]


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_version_single_sourced_with_pyproject(self):
        import tomllib
        from pathlib import Path

        import repro

        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        with open(pyproject, "rb") as handle:
            declared = tomllib.load(handle)["project"]["version"]
        assert repro.__version__ == declared


class TestConfigFlag:
    _FLAGS = [
        "--bins", "256", "--training", "16", "--min-support", "300",
    ]

    @pytest.fixture(scope="class")
    def trace_npz(self, tmp_path_factory, ddos_trace):
        from repro.flows import write_npz

        path = tmp_path_factory.mktemp("config-cli") / "trace.npz"
        write_npz(ddos_trace.flows, str(path))
        return str(path)

    @pytest.fixture(scope="class")
    def run_toml(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("config-cli") / "run.toml"
        path.write_text(
            "[detector]\nbins = 256\ntraining_intervals = 16\n\n"
            "[mining]\nmin_support = 300\n"
        )
        return str(path)

    def test_config_file_equals_flag_built_run(
        self, trace_npz, run_toml, capsys
    ):
        """Acceptance: from_toml drives a run identical to the
        equivalent flag-built config."""
        assert main(
            ["--seed", "1", "extract", trace_npz, *self._FLAGS]
        ) == 0
        from_flags = capsys.readouterr().out
        assert "interval 24" in from_flags
        assert main(
            ["--seed", "1", "extract", trace_npz, "--config", run_toml]
        ) == 0
        assert capsys.readouterr().out == from_flags

    def test_explicit_flags_override_file(
        self, trace_npz, run_toml, capsys
    ):
        assert main(
            ["--seed", "1", "extract", trace_npz, "--config", run_toml,
             "--min-support", "350"]
        ) == 0
        out = capsys.readouterr().out
        assert "min support 350" in out

    def test_config_on_detect(self, trace_npz, run_toml, capsys):
        assert main(
            ["--seed", "1", "extract", trace_npz, "--alarms-only",
             "--config", run_toml]
        ) == 0
        assert "alarms" in capsys.readouterr().out

    def test_config_on_stream(
        self, ddos_trace, run_toml, tmp_path, capsys
    ):
        from repro.flows import write_csv

        csv = tmp_path / "trace.csv"
        write_csv(ddos_trace.flows, str(csv))
        assert main(
            ["--seed", "1", "extract", str(csv), "--config", run_toml]
        ) == 0
        out = capsys.readouterr().out
        assert "interval 24" in out

    def test_unknown_key_error_exit_2(self, trace_npz, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text("[mining]\nmin_suport = 300\n")
        assert main(
            ["extract", trace_npz, "--config", str(bad)]
        ) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "did you mean 'min_support'" in err

    def test_bad_type_error_exit_2(self, trace_npz, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text("[mining]\nmin_support = \"lots\"\n")
        assert main(
            ["extract", trace_npz, "--config", str(bad)]
        ) == 2
        assert "must be int" in capsys.readouterr().err

    def test_missing_config_file_exit_2(self, trace_npz, capsys):
        assert main(
            ["extract", trace_npz, "--config", "/nope/run.toml"]
        ) == 2
        assert "not found" in capsys.readouterr().err


class TestFeaturesFlag:
    def test_features_choice_from_registry(self, tmp_path, capsys):
        out = tmp_path / "trace.npz"
        main(["generate", "--intervals", "4",
              "--flows-per-interval", "200", "--out", str(out)])
        capsys.readouterr()
        assert main(
            ["extract", str(out), "--alarms-only", "--bins", "64",
             "--training", "3",
             "--features", "endpoints"]
        ) == 0
        out_text = capsys.readouterr().out
        assert "#packets" not in out_text

    def test_unknown_feature_set_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["extract", "t.npz", "--features", "nope"]
            )


class TestThirdPartyMinerCLI:
    def test_unknown_miner_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["extract", "t.npz", "--miner", "magic"]
            )


class TestSonMiner:
    @pytest.fixture(scope="class")
    def anomalous_trace(self, tmp_path_factory, ddos_trace):
        from repro.flows import write_npz

        path = tmp_path_factory.mktemp("cli") / "trace.npz"
        write_npz(ddos_trace.flows, str(path))
        return str(path)

    _EXTRACT_ARGS = [
        "--bins", "128", "--training", "8", "--min-support", "60",
    ]

    def test_extract_son_miner(self, anomalous_trace, capsys):
        assert main(["extract", anomalous_trace, *self._EXTRACT_ARGS]) == 0
        serial = capsys.readouterr().out
        assert "interval" in serial
        assert main(
            ["extract", anomalous_trace, *self._EXTRACT_ARGS,
             "--miner", "son"]
        ) == 0
        assert capsys.readouterr().out == serial


class TestFleetCommand:
    @pytest.fixture(scope="class")
    def csv_trace(self, tmp_path_factory, ddos_trace):
        from repro.flows import write_csv

        path = tmp_path_factory.mktemp("fleet-cli") / "trace.csv"
        write_csv(ddos_trace.flows, str(path))
        return str(path)

    _FLEET_ARGS = [
        "--bins", "256", "--training", "16", "--min-support", "300",
    ]

    def test_fleet_table_output(self, csv_trace, capsys):
        assert main(
            ["--seed", "1", "fleet", csv_trace, *self._FLEET_ARGS,
             "--pipelines", "2", "--route", "dst_ip%2"]
        ) == 0
        out = capsys.readouterr().out
        assert "link0:" in out and "link1:" in out
        assert "fleet incidents" in out

    def test_fleet_json_output_and_store_dir(self, csv_trace, tmp_path,
                                             capsys):
        store_dir = tmp_path / "stores"
        assert main(
            ["--seed", "1", "fleet", csv_trace, *self._FLEET_ARGS,
             "--pipelines", "2", "--store-dir", str(store_dir),
             "--format", "json"]
        ) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert sorted(doc) == ["incidents", "pipelines"]
        assert sorted(doc["pipelines"]) == ["link0", "link1"]
        total = sum(p["flows"] for p in doc["pipelines"].values())
        assert total > 0
        assert doc["incidents"], "fleet produced no incidents"
        assert all(
            "pipeline" in entry and "score" in entry
            for entry in doc["incidents"]
        )
        # Human summary goes to stderr in json mode.
        assert "pipelines" in captured.err
        assert sorted(p.name for p in store_dir.iterdir()) == [
            "link0.db", "link1.db",
        ]
        # The stores are real: the incidents subcommand can query them.
        assert main(
            ["incidents", str(store_dir / "link0.db"), "--format", "json"]
        ) == 0

    def test_fleet_config_file(self, csv_trace, tmp_path, capsys):
        config = tmp_path / "fleet.toml"
        config.write_text(
            "[detector]\nbins = 256\ntraining_intervals = 16\n"
            "[mining]\nmin_support = 300\n"
            "[fleet]\nroute = 'dst_ip%2'\n"
            "[fleet.pipelines.east]\n[fleet.pipelines.west]\n"
        )
        assert main(
            ["--seed", "1", "fleet", csv_trace, "--config", str(config)]
        ) == 0
        out = capsys.readouterr().out
        assert "east:" in out and "west:" in out

    def test_fleet_conflicting_pipeline_sources(self, csv_trace, tmp_path,
                                                capsys):
        config = tmp_path / "fleet.toml"
        config.write_text("[fleet.pipelines.a]\n")
        assert main(
            ["fleet", csv_trace, "--config", str(config),
             "--pipelines", "2"]
        ) == 2
        assert "one place" in capsys.readouterr().err

    def test_fleet_requires_pipelines(self, csv_trace, capsys):
        assert main(["fleet", csv_trace]) == 2
        assert "no pipelines" in capsys.readouterr().err

    def test_fleet_rejects_bad_route(self, csv_trace, capsys):
        assert main(
            ["fleet", csv_trace, "--pipelines", "2",
             "--route", "dst_ip%3"]
        ) == 2
        assert "2" in capsys.readouterr().err

    def test_fleet_drops_extractions_by_default(self, csv_trace,
                                                monkeypatch):
        """The CLI only reads counters + stores, so every pipeline
        session runs with the flat-memory retention default (an
        explicit --keep-extractions opts back in)."""
        from repro.fleet import FleetManager

        seen = {}
        original = FleetManager.__init__

        def spy(self, pipelines, **kwargs):
            seen.update(
                {n: c.keep_extractions for n, c in pipelines.items()}
            )
            return original(self, pipelines, **kwargs)

        monkeypatch.setattr(FleetManager, "__init__", spy)
        assert main(
            ["--seed", "1", "fleet", csv_trace, *self._FLEET_ARGS,
             "--pipelines", "2"]
        ) == 0
        assert seen == {"link0": False, "link1": False}
        seen.clear()
        assert main(
            ["--seed", "1", "fleet", csv_trace, *self._FLEET_ARGS,
             "--pipelines", "2", "--keep-extractions"]
        ) == 0
        assert seen == {"link0": True, "link1": True}

    def test_fleet_file_retention_override_wins(self, csv_trace, tmp_path,
                                                monkeypatch):
        from repro.fleet import FleetManager

        config = tmp_path / "fleet.toml"
        config.write_text(
            "[detector]\nbins = 256\ntraining_intervals = 16\n"
            "[mining]\nmin_support = 300\n"
            "[fleet]\nroute = 'dst_ip%2'\n"
            "[fleet.pipelines.east.streaming]\nkeep_extractions = true\n"
            "[fleet.pipelines.west]\n"
        )
        seen = {}
        original = FleetManager.__init__

        def spy(self, pipelines, **kwargs):
            seen.update(
                {n: c.keep_extractions for n, c in pipelines.items()}
            )
            return original(self, pipelines, **kwargs)

        monkeypatch.setattr(FleetManager, "__init__", spy)
        assert main(
            ["--seed", "1", "fleet", csv_trace, "--config", str(config)]
        ) == 0
        assert seen == {"east": True, "west": False}


class TestTraceFlag:
    """--trace/--trace-format: span export without output drift."""

    @pytest.fixture(scope="class")
    def csv_trace(self, tmp_path_factory, ddos_trace):
        from repro.flows import write_csv

        path = tmp_path_factory.mktemp("trace-cli") / "trace.csv"
        write_csv(ddos_trace.flows, str(path))
        return str(path)

    _ARGS = [
        "--bins", "256", "--training", "16", "--min-support", "300",
    ]

    def test_stream_trace_writes_jsonl(self, csv_trace, tmp_path, capsys):
        out = tmp_path / "spans.jsonl"
        assert main(
            ["--seed", "1", "extract", csv_trace, *self._ARGS,
             "--trace", str(out)]
        ) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines
        docs = [json.loads(line) for line in lines]
        for doc in docs:
            assert {
                "trace_id", "span_id", "parent_id", "name",
                "start", "end", "attributes", "events",
            } <= set(doc)
        root = docs[0]
        assert root["name"] == "session.run"
        # write_trace runs after the session closed: the root is ended.
        assert root["end"] is not None
        names = {doc["name"] for doc in docs}
        assert {"stage.binning", "session.interval",
                "stage.detection", "stage.mining"} <= names

    def test_stream_output_identical_with_and_without_trace(
        self, csv_trace, tmp_path, capsys
    ):
        assert main(
            ["--seed", "1", "extract", csv_trace, *self._ARGS]
        ) == 0
        plain = capsys.readouterr().out
        assert main(
            ["--seed", "1", "extract", csv_trace, *self._ARGS,
             "--trace", str(tmp_path / "spans.jsonl")]
        ) == 0
        traced = capsys.readouterr().out
        assert "interval 24" in plain
        assert traced == plain

    def test_extract_trace_chrome_format(self, csv_trace, tmp_path, capsys):
        out = tmp_path / "spans.chrome.json"
        assert main(
            ["--seed", "1", "extract", csv_trace, *self._ARGS,
             "--trace", str(out), "--trace-format", "chrome"]
        ) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(
            e["name"] == "session.run" for e in doc["traceEvents"]
        )

    def test_trace_to_stdout(self, csv_trace, capsys):
        assert main(
            ["--seed", "1", "extract", csv_trace, *self._ARGS,
             "--format", "json", "--trace", "-", "--trace-format", "text"]
        ) == 0
        out = capsys.readouterr().out
        assert "session.run" in out
        assert "stage.detection" in out

    def test_fleet_trace_nests_sessions(self, csv_trace, tmp_path, capsys):
        out = tmp_path / "fleet-spans.jsonl"
        assert main(
            ["--seed", "1", "fleet", csv_trace, *self._ARGS,
             "--pipelines", "2", "--route", "dst_ip%2",
             "--trace", str(out)]
        ) == 0
        capsys.readouterr()
        docs = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        roots = [d for d in docs if d["name"] == "fleet.run"]
        assert len(roots) == 1
        sessions = [d for d in docs if d["name"] == "session.run"]
        assert len(sessions) == 2
        assert all(
            d["parent_id"] == roots[0]["span_id"] for d in sessions
        )
        assert any(d["name"] == "fleet.rank" for d in docs)

    def test_config_trace_path_used_without_flag(
        self, csv_trace, tmp_path, capsys
    ):
        out = tmp_path / "config-spans.txt"
        config = tmp_path / "run.toml"
        config.write_text(
            "[detector]\nbins = 256\ntraining_intervals = 16\n"
            "[mining]\nmin_support = 300\n"
            f"[obs]\ntrace_path = '{out}'\ntrace_format = 'text'\n"
        )
        assert main(
            ["--seed", "1", "extract", csv_trace, "--config", str(config)]
        ) == 0
        capsys.readouterr()
        text = out.read_text()
        assert text.startswith("trace ")
        assert "session.run" in text

    def test_bad_trace_format_in_config_rejected(
        self, csv_trace, tmp_path, capsys
    ):
        config = tmp_path / "bad.toml"
        config.write_text("[obs]\ntrace_format = 'otlp'\n")
        assert main(
            ["extract", csv_trace, "--config", str(config)]
        ) == 2
        assert "trace_format" in capsys.readouterr().err
