"""Engine mechanics: noqa parsing, suppression scope, parse errors."""

from __future__ import annotations

from repro.devtools import PARSE_ERROR_CODE, lint_paths
from repro.devtools.findings import Finding, is_suppressed, parse_noqa


class TestParseNoqa:
    def test_bare_noqa_suppresses_everything(self):
        assert parse_noqa("x = 1  # repro: noqa\n") == {1: None}

    def test_coded_noqa_normalises_case_and_whitespace(self):
        noqa = parse_noqa("y = 2  # repro: noqa[rpr001,  RPR004]\n")
        assert noqa == {1: frozenset({"RPR001", "RPR004"})}

    def test_lines_are_one_based(self):
        noqa = parse_noqa("a = 1\nb = 2  # repro: noqa[RPR002]\n")
        assert set(noqa) == {2}

    def test_empty_bracket_list_stays_inert(self):
        assert parse_noqa("z = 3  # repro: noqa[]\n") == {1: frozenset()}
        finding = Finding("f.py", 1, 0, "RPR001", "m")
        assert not is_suppressed(finding, {1: frozenset()})

    def test_plain_comments_do_not_suppress(self):
        assert parse_noqa("x = 1  # noqa\ny = 2  # repro: nope\n") == {}


class TestSuppressionScope:
    def test_wrong_code_does_not_suppress(self, tmp_path):
        source = (
            "import sqlite3\n"
            "\n"
            "\n"
            "def connect(path):\n"
            "    return sqlite3.connect(path)  # repro: noqa[RPR002]\n"
        )
        path = tmp_path / "wrong_code.py"
        path.write_text(source)
        result = lint_paths([str(path)])
        assert [f.code for f in result.findings] == ["RPR001"]

    def test_suppression_is_per_line(self, tmp_path):
        source = (
            "import sqlite3\n"
            "\n"
            "\n"
            "def connect(path):\n"
            "    first = sqlite3.connect(path)  # repro: noqa[RPR001]\n"
            "    second = sqlite3.connect(path)\n"
            "    return first, second\n"
        )
        path = tmp_path / "per_line.py"
        path.write_text(source)
        result = lint_paths([str(path)])
        assert [(f.code, f.line) for f in result.findings] == [("RPR001", 6)]


class TestParseErrors:
    def test_syntax_error_becomes_a_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def oops(:\n    pass\n")
        result = lint_paths([str(path)])
        assert result.checked_files == 0
        assert [f.code for f in result.findings] == [PARSE_ERROR_CODE]
        assert "cannot parse file" in result.findings[0].message
        assert result.exit_code == 1

    def test_broken_file_does_not_stop_the_run(self, tmp_path):
        (tmp_path / "broken.py").write_text("def oops(:\n")
        (tmp_path / "fine.py").write_text("x = 1\n")
        result = lint_paths([str(tmp_path)])
        assert result.checked_files == 1
        assert [f.code for f in result.findings] == [PARSE_ERROR_CODE]


class TestResultShape:
    def test_findings_sort_by_position(self, tmp_path):
        source = (
            "import sqlite3\n"
            "\n"
            "\n"
            "def query(path):\n"
            "    conn = sqlite3.connect(path)\n"
            "    conn.execute('SELECT 1')\n"
            "    return conn\n"
        )
        path = tmp_path / "ordering.py"
        path.write_text(source)
        result = lint_paths([str(path)])
        assert [f.line for f in result.findings] == [5, 6]

    def test_rules_ran_are_recorded(self, tmp_path):
        (tmp_path / "empty.py").write_text("x = 1\n")
        result = lint_paths([str(tmp_path)])
        assert result.rules == [
            "RPR001", "RPR002", "RPR004", "RPR005", "RPR006", "RPR007",
        ]
