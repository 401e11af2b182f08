"""Reporting for the performance benches (``bench_<name>.py``).

Results are accumulated through the ``report`` fixture and printed in
the terminal summary.  Every bench module that ran also writes a
machine-readable ``BENCH_<name>.json`` (to ``$BENCH_JSON_DIR`` or the
working directory): per-test wall-clock durations and outcomes, the
module's uppercase parameter constants, the process peak RSS, and any
structured metrics the bench passed to ``report(...)`` as keyword
arguments.  The paper's tables and figures are tier-1 tests in
``tests/paper/``.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

_collected: list[str] = []
#: bench name -> accumulated machine-readable record.
_bench_tests: dict[str, list[dict]] = {}
_bench_metrics: dict[str, dict] = {}


def _bench_name(path: str) -> str | None:
    base = os.path.basename(path)
    if base.startswith("bench_") and base.endswith(".py"):
        return base[len("bench_"):-len(".py")]
    return None


@pytest.fixture
def report(request):
    """Append lines to the end-of-run reproduction report.

    Positional arguments are the human-readable lines.  Keyword
    arguments are structured metrics (throughput, peak bytes, ...)
    recorded into the calling module's ``BENCH_<name>.json``.
    """
    name = _bench_name(str(request.node.fspath))

    def emit(*lines: str, **metrics: object) -> None:
        _collected.extend(lines)
        if name is not None and metrics:
            _bench_metrics.setdefault(name, {}).update(metrics)

    return emit


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = _bench_name(report.location[0])
    if name is None:
        return
    _bench_tests.setdefault(name, []).append({
        "test": report.location[2],
        "outcome": report.outcome,
        "duration_seconds": round(report.duration, 6),
    })


def _module_params(name: str) -> dict:
    """The bench module's uppercase scalar constants (its knobs)."""
    for module in list(sys.modules.values()):
        path = getattr(module, "__file__", None)
        if path is None or _bench_name(path) != name:
            continue
        params = {}
        for attr, value in vars(module).items():
            if attr.isupper() and isinstance(
                value, (int, float, str, bool)
            ):
                params[attr] = value
        return params
    return {}


def _peak_rss_kib() -> int | None:
    try:
        import resource
    except ImportError:  # non-POSIX: skip the memory column
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return peak // 1024 if sys.platform == "darwin" else peak


def pytest_sessionfinish(session, exitstatus):
    if not _bench_tests:
        return
    out_dir = os.environ.get("BENCH_JSON_DIR", os.getcwd())
    os.makedirs(out_dir, exist_ok=True)
    peak = _peak_rss_kib()
    for name in sorted(_bench_tests):
        record = {
            "bench": name,
            "params": _module_params(name),
            "peak_rss_kib": peak,
            "metrics": _bench_metrics.get(name, {}),
            "tests": _bench_tests[name],
        }
        target = os.path.join(out_dir, f"BENCH_{name}.json")
        with open(target, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _collected:
        terminalreporter.write_sep("=", "benchmark results")
        for line in _collected:
            terminalreporter.write_line(line)
    if _bench_tests:
        out_dir = os.environ.get("BENCH_JSON_DIR", os.getcwd())
        terminalreporter.write_line(
            f"machine-readable results: "
            f"{', '.join(f'BENCH_{n}.json' for n in sorted(_bench_tests))} "
            f"in {out_dir}"
        )

