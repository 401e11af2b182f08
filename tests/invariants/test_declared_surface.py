"""The program imports only what it declares and keeps only what it runs.

Imports: every import in ``src/repro`` is the standard library, ``repro``
or a ``pyproject.toml`` dependency, and every third-party import in
``tests/`` and ``examples/`` is on the ``pip install`` line of CI's
tier-1 job; the suites the numpy-floor job runs import only what that
job installs.  An import that lands without its install line passes
here and fails on a clean runner, at collection.

Callers: every public function and method in ``src/repro`` is named by
code in ``src/`` or ``examples/`` - as an identifier, or as a string
outside ``__all__`` and docstrings (a ``getattr`` or catalog dispatch) -
or is exported by ``repro.__all__`` or ``repro.api.__all__``.  A
sub-package's ``__all__`` re-export is not a caller, and neither is a
test: a method only tests call is a test helper, and lives with its
test.  The rest is ``EXEMPT``, one reason a row, and a row whose
definition gains a caller or goes must go too.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

import pytest

import repro
import repro.api
from tests.invariants.source import parse, sources, walk

ROOT = Path(__file__).resolve().parents[2]

ORACLE = "an oracle that a differential test compares the runtime against"
PAPER = (
    "a paper-figure model that tests/paper or examples consume "
    "(ROADMAP item 7 decides where that lab lives)"
)
LEDGER = (
    "a count-min / digest-clone row that the frozen "
    "benchmarks/perf/workloads.py pins (ROADMAP item 17)"
)
DOCUMENTED = "library surface that README documents; no verb calls it yet"
SNAPSHOTS = (
    "the clone-snapshot entry of the detection layer: the frozen "
    "benchmarks/perf/workloads.py replay feeds the bank's, and the "
    "scoring differential the lone detector's (both one scorer pass)"
)

EXEMPT = {
    "detection/kl.py kl_distance": ORACLE,
    "detection/kl.py kl_from_counts": ORACLE,
    "detection/kl.py first_difference": ORACLE,
    "mining/maximal.py is_maximal_in": ORACLE,
    "mining/transactions.py TransactionSet.tidset": ORACLE,
    "state.py unpack_array": ORACLE,
    "analysis/metrics.py ExtractionScore.all_events_covered": PAPER,
    "analysis/voting_model.py expected_normal_values": PAPER,
    "analysis/voting_model.py simulate_anomalous_miss": PAPER,
    "analysis/voting_model.py simulate_normal_inclusion": PAPER,
    "analysis/voting_model.py fig7_grid": PAPER,
    "analysis/voting_model.py fig8_grid": PAPER,
    "core/cost.py cost_curve": PAPER,
    "detection/manager.py DetectionRun.kl_series": PAPER,
    "detection/manager.py DetectorBank.observe_snapshots": SNAPSHOTS,
    "detection/detector.py HistogramDetector.observe_snapshots": SNAPSHOTS,
    "federation/digest.py countmin_seed": LEDGER,
    "federation/digest.py IntervalDigest.snapshots_by_feature": LEDGER,
    "sketch/countmin.py CountMinSketch.from_error_bounds": LEDGER,
    "sketch/countmin.py CountMinSketch.update_array": LEDGER,
    "sketch/countmin.py CountMinSketch.estimate": LEDGER,
    "sketch/countmin.py CountMinSketch.heavy_hitters": LEDGER,
    "core/config.py ExtractionConfig.from_toml": DOCUMENTED,
    "incidents/store.py IncidentStore.compact": DOCUMENTED,
}

FIRST_PARTY = frozenset({"repro", "tests"})
DOCUMENTABLE = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def undeclared_imports(source: str, allowed: frozenset[str]) -> list[str]:
    """``line: module`` per import of a module that is neither in the
    standard library nor in ``allowed`` (relative imports are local)."""
    found = []
    for node in walk(source):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top not in sys.stdlib_module_names and top not in allowed:
                found.append(f"{node.lineno}: {top}")
    return found


def _package(requirement: str) -> str:
    """The import name of a requirement (``"numpy==2.0.*"`` -> numpy)."""
    name = re.match(r"[\w.-]+", requirement.strip("\"'")).group()
    return name.lower().replace("-", "_")


def _ci_jobs() -> dict[str, str]:
    """``{job id: its lines of ci.yml}``, comment lines left out."""
    text = (ROOT / ".github/workflows/ci.yml").read_text()
    jobs = re.findall(
        r"^  ([\w-]+):\n((?:(?: {4}.*)?\n)*)", text.split("\njobs:\n")[1], re.M
    )
    return {
        job: "\n".join(
            line for line in body.splitlines() if not line.strip().startswith("#")
        )
        for job, body in jobs
    }


def _installed(job: str) -> frozenset[str]:
    """What the job's ``pip install`` line installs, by import name."""
    (line,) = re.findall(r"pip install (.+)", job)
    return frozenset(_package(word) for word in line.split())


def _declared() -> frozenset[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return frozenset(_package(word) for word in project["dependencies"])


def _texts(*paths: str) -> dict[str, str]:
    """``{repo path: text}`` of every module under each path."""
    files = set()
    for path in map(ROOT.joinpath, paths):
        files |= {path} if path.is_file() else set(path.rglob("*.py"))
    return {file.relative_to(ROOT).as_posix(): file.read_text() for file in files}


def test_every_import_is_declared():
    jobs = _ci_jobs()
    tier1, floor = _installed(jobs["tests"]), _installed(jobs["numpy-floor"])
    floor_paths = re.findall(r"\btests/[\w/.-]+", jobs["numpy-floor"])
    checks = [
        ({f"src/repro/{k}": v for k, v in sources().items()}, _declared()),
        (_texts("tests", "examples"), tier1),
        (_texts("tests/conftest.py", *floor_paths), floor),
    ]
    offenders = {
        path: found
        for texts, allowed in checks
        for path, text in texts.items()
        if (found := undeclared_imports(text, FIRST_PARTY | allowed))
    }
    assert floor_paths
    assert offenders == {}
    # ... and both test jobs install what the package declares.
    assert _declared() <= tier1 and _declared() <= floor


def public_definitions(source: str) -> list[str]:
    """The qualified names of the module's public functions and of the
    public methods of its classes."""
    found = []
    for node in parse(source).body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        found += [
            prefix + member.name
            for member in members
            if isinstance(member, ast.FunctionDef | ast.AsyncFunctionDef)
            and not member.name.startswith("_")
        ]
    return found


def names_used(source: str) -> set[str]:
    """Every identifier the module reads, the original name of each
    renamed import, and every string outside ``__all__`` and docstrings."""
    skip = set()
    for node in walk(source):
        targets = getattr(node, "targets", ())
        if "__all__" in [getattr(target, "id", None) for target in targets]:
            skip |= set(ast.walk(node.value))
        if isinstance(node, DOCUMENTABLE) and node.body:
            if isinstance(node.body[0], ast.Expr):
                skip.add(node.body[0].value)
    used = set()
    for node in walk(source):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias) and node.asname:
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node not in skip:
                used.add(node.value)
    return used


def uncalled(
    modules: dict[str, str], callers: list[str], exported: set[str]
) -> list[str]:
    """``path qualified-name`` of every public definition in
    ``modules`` that no text of ``modules`` or ``callers`` names."""
    named = set().union(exported, *map(names_used, [*modules.values(), *callers]))
    return [
        f"{path} {name}"
        for path, source in modules.items()
        for name in public_definitions(source)
        if name.rpartition(".")[2] not in named
    ]


def test_every_public_definition_has_a_caller():
    exported = set(repro.__all__) | set(repro.api.__all__)
    examples = list(_texts("examples").values())
    offenders = uncalled(sources(), examples, exported)
    assert sorted(set(offenders) - EXEMPT.keys()) == []
    assert sorted(EXEMPT.keys() - set(offenders)) == []  # no stale row


@pytest.mark.parametrize(
    "source, found",
    [
        ("import numpy\nfrom repro import api\nimport os.path\n", []),
        ("from . import sibling\nimport tomllib\n", []),
        ("import numpy\nimport yaml\n", ["2: yaml"]),
        ("from pandas.core import frame\n", ["1: pandas"]),
        ("def f():\n    import requests\n", ["2: requests"]),
    ],
)
def test_undeclared_imports(source, found):
    assert undeclared_imports(source, frozenset({"numpy", "repro"})) == found


@pytest.mark.parametrize(
    "module, callers, found",
    [
        ("def run():\n    pass\n", ["run()"], []),
        ("class A:\n    def go(self):\n        pass\n", ["a.go()"], []),
        ("class A:\n    def go(self):\n        pass\n", ["a.stop()"], ["m.py A.go"]),
        ("def used():\n    pass\n\n\nused()\n", [], []),
        ("def run():\n    pass\n", ["from m import run"], ["m.py run"]),
        ("def run():\n    pass\n", ["__all__ = ['run']"], ["m.py run"]),
        ("def run():\n    '''run'''\n", [], ["m.py run"]),
        ("def run():\n    pass\n", ["from m import run as go"], []),
        ("def counter():\n    pass\n", ["getattr(r, 'counter')"], []),
        ("def _private():\n    pass\n", [], []),
        ("def extract():\n    pass\n", [], []),
    ],
)
def test_uncalled(module, callers, found):
    assert uncalled({"m.py": module}, callers, {"extract"}) == found
