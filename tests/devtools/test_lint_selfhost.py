"""Self-hosting: the shipped tree satisfies its own linter.

This is the gate CI runs; keeping it in the suite means a violation
fails the ordinary test run too, not just the lint job.
"""

from __future__ import annotations

import os

from repro.devtools import lint_paths
from repro.devtools.cli import main

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
SRC = os.path.join(REPO_ROOT, "src", "repro")


def test_repro_lint_src_repro_exits_zero(capsys):
    assert main([SRC]) == 0
    assert capsys.readouterr().out == ""


def test_every_rule_runs_over_the_whole_tree():
    result = lint_paths([SRC], root=REPO_ROOT)
    assert result.findings == []
    # The walk really covered the package, devtools included.
    assert result.checked_files > 100
    assert result.rules == [
        "RPR001", "RPR002", "RPR004", "RPR005", "RPR006", "RPR007",
    ]
