"""CLI contract: exit codes, selection, and both output formats."""

from __future__ import annotations

import json
import os

import pytest

from repro.devtools.cli import main
from repro.devtools.findings import JSON_SCHEMA_VERSION

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
RPR001_VIOLATION = os.path.join(FIXTURES, "rpr001_violation.py")
RPR001_CLEAN = os.path.join(FIXTURES, "rpr001_clean.py")


class TestExitCodes:
    def test_clean_run_exits_zero(self, capsys):
        assert main([RPR001_CLEAN]) == 0
        assert capsys.readouterr().out == ""

    def test_findings_exit_one(self, capsys):
        assert main([RPR001_VIOLATION]) == 1
        out = capsys.readouterr().out
        assert ": RPR001 " in out
        assert "2 finding(s) in 1 file(s)" in out

    def test_missing_path_exits_two(self, capsys):
        code = main([os.path.join(FIXTURES, "no_such_file.py")])
        assert code == 2
        assert "repro-lint: error" in capsys.readouterr().err

    def test_no_paths_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_rule_code_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([RPR001_VIOLATION, "--select", "RPR999"])
        assert excinfo.value.code == 2
        assert "unknown rule code" in capsys.readouterr().err


class TestSelection:
    def test_select_limits_the_ruleset(self, capsys):
        assert main([RPR001_VIOLATION, "--select", "RPR002"]) == 0
        assert main([RPR001_VIOLATION, "--select", "RPR001"]) == 1
        capsys.readouterr()

    def test_ignore_drops_a_rule(self, capsys):
        assert main([RPR001_VIOLATION, "--ignore", "RPR001"]) == 0
        capsys.readouterr()

    def test_list_rules_prints_the_table(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPR001", "RPR002", "RPR004", "RPR005", "RPR006",
                     "RPR007"):
            assert code in out
        assert "RPR003" not in out


class TestTextFormat:
    def test_rows_carry_path_position_and_code(self, capsys):
        main([RPR001_VIOLATION])
        first = capsys.readouterr().out.splitlines()[0]
        location, _, rest = first.partition(": ")
        path, line, col = location.rsplit(":", 2)
        assert path.endswith("rpr001_violation.py")
        assert line.isdigit() and col.isdigit()
        assert rest.startswith("RPR001 ")


class TestJsonFormat:
    """The JSON schema is the CI contract; hold every key."""

    def _report(self, capsys, *argv: str) -> dict:
        exit_code = main([*argv, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        payload["_exit"] = exit_code
        return payload

    def test_schema_keys_and_finding_shape(self, capsys):
        report = self._report(capsys, RPR001_VIOLATION)
        assert set(report) == {
            "version", "checked_files", "rules", "findings", "counts",
            "_exit",
        }
        assert report["version"] == JSON_SCHEMA_VERSION
        assert report["checked_files"] == 1
        assert report["_exit"] == 1
        for finding in report["findings"]:
            assert set(finding) == {"path", "line", "col", "code", "message"}
            assert isinstance(finding["line"], int)
            assert isinstance(finding["col"], int)

    def test_counts_match_findings(self, capsys):
        report = self._report(capsys, RPR001_VIOLATION)
        assert report["counts"] == {"RPR001": 2}
        assert len(report["findings"]) == 2

    def test_rules_reflect_selection(self, capsys):
        report = self._report(
            capsys, RPR001_VIOLATION, "--select", "RPR001,RPR002"
        )
        assert report["rules"] == ["RPR001", "RPR002"]

    def test_clean_run_still_emits_a_report(self, capsys):
        report = self._report(capsys, RPR001_CLEAN)
        assert report["_exit"] == 0
        assert report["findings"] == []
        assert report["counts"] == {}

    def test_output_is_deterministic(self, capsys):
        main([RPR001_VIOLATION, "--format", "json"])
        first = capsys.readouterr().out
        main([RPR001_VIOLATION, "--format", "json"])
        second = capsys.readouterr().out
        assert first == second
