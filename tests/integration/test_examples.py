"""Smoke tests: the example scripts import cleanly and run to completion.

Every example is imported (its top level executed under a name other
than ``__main__``), so a renamed or removed public name it uses fails
here; importing runs nothing, because each guards ``main()``.  The
fast examples are then executed in-process via runpy so coverage and
import state behave normally; the two-week campaign is exercised by
the benchmark suite instead.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


@pytest.mark.parametrize(
    "script", sorted(path.name for path in EXAMPLES.glob("*.py"))
)
def test_example_imports_without_running(script, capsys):
    namespace = runpy.run_path(str(EXAMPLES / script), run_name="example")
    assert callable(namespace["main"])
    assert capsys.readouterr().out == ""


def _run(script: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.slow
class TestExamples:
    def test_sasser_worm(self, capsys):
        out = _run("sasser_worm.py", capsys)
        assert "union" in out
        assert "intersection" in out
        assert "445" in out and "9996" in out and "5554" in out

    def test_range_anomaly(self, capsys):
        out = _run("range_anomaly.py", capsys)
        assert "/24" in out
        assert "surfaces at level" in out

    def test_quickstart(self, capsys):
        out = _run("quickstart.py", capsys)
        assert "ground truth" in out
        assert "cost reduction" in out

    def test_offline_forensics(self, capsys):
        out = _run("offline_forensics.py", capsys)
        assert "support schedule" in out
        assert "dstPort=7000" in out

    def test_incident_triage(self, capsys):
        out = _run("incident_triage.py", capsys)
        assert "correlated incidents" in out
        assert "drill-down" in out
        assert "contributing intervals" in out
        assert "ranked first" in out

    def test_fleet_two_links(self, capsys):
        out = _run("fleet_two_links.py", capsys)
        assert "per-link summaries" in out
        assert "upstream" in out and "peering" in out
        assert "fleet-wide incident ranking" in out
        assert "the DDoS surfaced on link" in out

    def test_detector_tuning(self, capsys):
        out = _run("detector_tuning.py", capsys)
        assert "ROC sweep" in out
        assert "recommendation" in out

    def test_run_toml_example_loads(self):
        from repro.core import ExtractionConfig

        config = ExtractionConfig.from_toml(EXAMPLES / "run.toml")
        assert config.min_support == 300
        assert config.detector.bins == 256
        assert config.keep_extractions is False
        assert len(config.features) == 5

    def test_examples_are_executable_files(self):
        scripts = sorted(EXAMPLES.glob("*.py"))
        assert len(scripts) >= 7
        for script in scripts:
            first = script.read_text().splitlines()[0]
            assert first.startswith("#!"), f"{script.name} missing shebang"
