"""Every repo path the docs name exists.

README, CONTRIBUTING, the verify notes and ``src/repro``'s docstrings
and comments name files and directories under ``src/``, ``tests/``,
``benchmarks/``, ``examples/`` and ``.github/`` (``repro/...`` is read
under ``src/``), and root ``BENCH_*.json`` files.  Each must exist,
and a glob (``test_*.py``, or a ``<name>`` placeholder, read as ``*``)
must match at least one.  ``CHANGES.md`` and ``ROADMAP.md`` are
history and may name what is gone; ``benchmarks/perf/`` is frozen with
the ledger and is not read.
"""

import re
from pathlib import Path

import pytest

from tests.invariants.source import sources

ROOT = Path(__file__).resolve().parents[2]
DOCS = ("README.md", "CONTRIBUTING.md", ".claude/skills/verify/SKILL.md")

PATH = re.compile(
    r"(?<![\w./<>-])((?:src|tests|benchmarks|examples|\.github|repro)/[\w./*<>-]*"
    r"|BENCH_[\w*<>-]+\.json)"
)


def named_paths(text: str) -> set[str]:
    """The repo paths ``text`` names, as globs from the repo root."""
    paths = set()
    for match in PATH.findall(text):
        path = re.sub(r"<[^>]*>", "*", match.rstrip(".-/"))
        paths.add(f"src/{path}" if path.startswith("repro/") else path)
    return paths


def missing_paths(text: str, root: Path = ROOT) -> list[str]:
    """The paths ``text`` names that match nothing under ``root``."""
    return sorted(p for p in named_paths(text) if next(root.glob(p), None) is None)


def test_the_docs_name_only_paths_that_exist():
    texts = {name: (ROOT / name).read_text() for name in DOCS}
    texts |= {f"src/repro/{path}": text for path, text in sources().items()}
    missing = {name: missing_paths(text) for name, text in texts.items()}
    assert {name: paths for name, paths in missing.items() if paths} == {}


@pytest.mark.parametrize(
    "text, missing",
    [
        ("run `tests/obs/test_trace.py`.", []),
        ("see `repro/obs/trace.py` and `tests/paper/`.", []),
        ("`tests/paper/test_<name>.py`, `src/repro/cli/*`", []),
        ("export PYTHONPATH=/srv/checkout/src; PYTHONPATH=<tree>/src", []),
        ("`tests/obs/test_gone.py`", ["tests/obs/test_gone.py"]),
        ("`pytest benchmarks/bench_<name>.py`", ["benchmarks/bench_*.py"]),
        ("`benchmarks/bench_*.py` assert", ["benchmarks/bench_*.py"]),
        ("committed as `BENCH_service_ingest.json`", ["BENCH_service_ingest.json"]),
        ("`repro/obs/gone.py`", ["src/repro/obs/gone.py"]),
    ],
)
def test_missing_paths(text, missing):
    assert missing_paths(text) == missing
