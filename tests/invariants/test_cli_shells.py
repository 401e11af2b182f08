"""One way down: a CLI verb is argv -> one ``repro.api`` call ->
printing.

A verb that wires its own extractor, fleet, federator, registry or
tracer is a second implementation of its library twin, and the two
drift (``api.serve`` once had no default route while ``serve`` did).
These guards keep the constructors - and the decisions that used to
be copied next to them - in one place each.
"""

import ast

from tests.invariants.source import sources, walk

#: What ``repro.api`` builds on a verb's behalf.
BUILDERS = {
    "FleetManager",
    "AnomalyExtractor",
    "DetectorBank",
    "Federator",
    "open_federator",
    "MetricsRegistry",
    "Tracer",
}


def _called_names(path: str) -> set[str]:
    """Terminal names of everything ``path`` calls: ``Tracer()`` and
    ``trace.Tracer()`` both yield ``Tracer``."""
    names = set()
    for node in walk(sources()[path]):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


def _callers(*names: str, skip: tuple[str, ...] = ()) -> list[str]:
    return [
        path
        for path in sources()
        if not path.startswith(skip) and _called_names(path) & set(names)
    ]


def test_no_cli_module_builds_what_the_api_builds():
    built = {
        path: sorted(_called_names(path) & BUILDERS)
        for path in sources()
        if path.startswith("cli/")
    }
    assert {module: names for module, names in built.items() if names} == {}


def test_the_observer_default_is_decided_once():
    """Outside ``obs/`` a registry or tracer is constructed by
    ``core.pipeline.default_observers`` (the config-driven default) and
    by ``api.metrics()`` / ``api.tracer()`` (the caller asking for a
    fresh one) - nowhere else."""
    assert _callers("MetricsRegistry", "Tracer", skip=("obs/",)) == [
        "api.py",
        "core/pipeline.py",
    ]


def test_wire_digests_are_parsed_by_one_reader():
    parsers = [
        path
        for path, text in sources().items()
        for node in walk(text)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "from_json"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "IntervalDigest"
    ]
    assert parsers == ["federation/digest.py"]
    assert _callers("read_digests") == ["federation/tier.py", "service/app.py"]


def test_detect_opens_no_files(tmp_path, capsys):
    """``extract --alarms-only`` reads the detector bank of a session,
    so the run config's ``[incidents]`` / ``[obs]`` outputs must stay
    shut."""
    from repro.cli import main
    from repro.flows import write_npz
    from repro.traffic import TraceGenerator, small_test

    trace = tmp_path / "trace.npz"
    write_npz(TraceGenerator(small_test(300), seed=3).generate(6).flows, trace)
    outputs = {
        name: tmp_path / name
        for name in ("incidents.db", "metrics.jsonl", "trace.jsonl")
    }
    config = tmp_path / "run.toml"
    config.write_text(
        "[detector]\nbins = 64\ntraining_intervals = 3\n"
        f"[incidents]\nstore_path = \"{outputs['incidents.db']}\"\n"
        "[obs]\nenabled = true\n"
        f"jsonl_path = \"{outputs['metrics.jsonl']}\"\n"
        f"trace_path = \"{outputs['trace.jsonl']}\"\n"
    )
    assert main(
        ["extract", str(trace), "--alarms-only", "--config", str(config)]
    ) == 0
    assert "6 intervals" in capsys.readouterr().out
    assert [name for name, path in outputs.items() if path.exists()] == []
