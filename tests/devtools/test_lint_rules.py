"""Golden per-rule checks against the fixture corpus.

Every rule has three fixtures: one that violates it (with a known
finding count), one that is clean, and one where the same violations
are silenced by ``# repro: noqa`` comments.  Whole-tree rules
(RPR004 layering, RPR006 api-surface) use small fixture *trees* with
the repo's ``src/repro`` layout so module names resolve.
"""

from __future__ import annotations

import os

import pytest

from repro.devtools import lint_paths
from repro.devtools.rules import rules_by_code

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def lint_fixture(target: str, code: str, root: str | None = None):
    rule_type = rules_by_code()[code]
    return lint_paths([target], root=root, rules=[rule_type()])


# (code, fixture stem, findings expected from the violating variant)
FLAT_CASES = [
    ("RPR001", "rpr001", 2),
    ("RPR002", "rpr002", 5),
    ("RPR005", "rpr005", 2),
    ("RPR007", "rpr007", 5),
]


@pytest.mark.parametrize(
    "code,stem,expected", FLAT_CASES, ids=[c[1] for c in FLAT_CASES]
)
class TestFlatFixtures:
    def test_violation_is_found(self, code, stem, expected):
        path = os.path.join(FIXTURES, f"{stem}_violation.py")
        result = lint_fixture(path, code)
        assert [f.code for f in result.findings] == [code] * expected
        assert result.exit_code == 1

    def test_clean_fixture_passes(self, code, stem, expected):
        path = os.path.join(FIXTURES, f"{stem}_clean.py")
        result = lint_fixture(path, code)
        assert result.findings == []
        assert result.exit_code == 0

    def test_noqa_suppresses_every_finding(self, code, stem, expected):
        path = os.path.join(FIXTURES, f"{stem}_suppressed.py")
        result = lint_fixture(path, code)
        assert result.findings == []
        assert result.exit_code == 0


class TestRuleDetails:
    """Anchor a few message/position details so refactors of the rules
    cannot silently change what gets reported."""

    def test_rpr001_names_the_escaping_call(self):
        path = os.path.join(FIXTURES, "rpr001_violation.py")
        result = lint_fixture(path, "RPR001")
        calls = sorted(
            f.message.split("(")[0].rsplit(".", 1)[-1].strip()
            for f in result.findings
        )
        assert any(".connect()" in f.message for f in result.findings)
        assert any(".execute()" in f.message for f in result.findings)
        assert calls  # both findings rendered a call name

    def test_rpr002_distinguishes_failure_modes(self):
        path = os.path.join(FIXTURES, "rpr002_violation.py")
        messages = [
            f.message for f in lint_fixture(path, "RPR002").findings
        ]
        assert any("not in the catalog" in m for m in messages)
        assert any("catalogued as a counter" in m for m in messages)
        assert any("catalogued with labels" in m for m in messages)
        assert any("literal catalogued metric name" in m for m in messages)
        assert any("NULL_REGISTRY discipline" in m for m in messages)

    def test_rpr005_names_class_method_and_attribute(self):
        path = os.path.join(FIXTURES, "rpr005_violation.py")
        messages = [
            f.message for f in lint_fixture(path, "RPR005").findings
        ]
        assert any("Accumulator.add" in m and "_total" in m for m in messages)
        assert any(
            "Accumulator.reset" in m and "_history" in m for m in messages
        )

    def test_rpr007_distinguishes_failure_modes(self):
        path = os.path.join(FIXTURES, "rpr007_violation.py")
        messages = [
            f.message for f in lint_fixture(path, "RPR007").findings
        ]
        assert any(
            "'stage.made_up' is not in the catalog" in m for m in messages
        )
        assert any("needs a literal catalogued name" in m for m in messages)
        assert any("instruments.EVENTS" in m for m in messages)
        # A keyword name is checked like a positional one.
        assert any(".span() name 'shard.wrong'" in m for m in messages)


class TestLayeringTrees:
    def _lint(self, tree: str):
        root = os.path.join(FIXTURES, tree)
        return lint_fixture(root, "RPR004", root=root)

    def test_violating_tree_reports_break_and_cycle(self):
        result = self._lint("rpr004_violation")
        assert len(result.findings) == 2
        layering = [
            f for f in result.findings if "layering:" in f.message
        ]
        cycles = [
            f for f in result.findings if "import cycle" in f.message
        ]
        assert len(layering) == 1 and len(cycles) == 1
        assert "repro.flows.bad" in layering[0].message
        assert "repro.core.stuff" in layering[0].message
        assert "repro.mining.a <-> repro.mining.b" in cycles[0].message
        # The cycle anchors at the first member's import statement.
        assert cycles[0].path.endswith(os.path.join("mining", "a.py"))

    def test_clean_tree_passes(self):
        assert self._lint("rpr004_clean").findings == []

    def test_noqa_suppresses_project_level_findings(self):
        assert self._lint("rpr004_suppressed").findings == []


class TestApiSurfaceTrees:
    def _lint(self, tree: str):
        root = os.path.join(FIXTURES, tree)
        return lint_fixture(root, "RPR006", root=root)

    def test_violating_tree_reports_drift(self):
        messages = [f.message for f in self._lint("rpr006_violation").findings]
        assert len(messages) == 2
        assert any("unresolved names: ghost" in m for m in messages)
        assert any("api-surface" in m for m in messages)

    def test_clean_tree_passes(self):
        assert self._lint("rpr006_clean").findings == []

    def test_noqa_suppresses_surface_findings(self):
        assert self._lint("rpr006_suppressed").findings == []
