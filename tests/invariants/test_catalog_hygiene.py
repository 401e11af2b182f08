"""The instrument catalog and the program name the same things.

The catalog in :mod:`repro.obs.instruments` is the operator contract:
dashboards, the Chrome-trace goldens and the ``explain`` narrative key
on its names.  Both directions hold:

* every ``.counter/.gauge/.histogram`` call outside ``obs/`` passes a
  literal ``CATALOG`` name with the catalogued kind and labels, every
  ``catalogued(registry, name)`` a literal ``CATALOG`` name, every
  ``.span`` a literal ``SPANS`` name and every ``.event/.add_event`` a
  literal ``EVENTS`` name - and instrumented code never branches on
  ``registry.enabled`` (the disabled registry hands out no-op
  instruments precisely so both paths run the same code);
* every catalogued name is named somewhere in ``src/repro`` outside
  its catalog definition, so the catalog shrinks with the code.  Inside
  ``instruments.py`` only the
  :class:`~repro.obs.instruments.PipelineInstruments` bundle counts -
  it is where the per-pipeline metrics are resolved by name.
"""

import ast

import pytest

from repro.obs.instruments import CATALOG, EVENTS, SPANS
from tests.invariants.source import parse, sources, terminal_name, walk

REGISTRIES = {"metrics", "registry", "_metrics", "_registry"}
BUNDLE = "PipelineInstruments"


def _literal(node: ast.AST | None):
    """The value of a literal expression (a list as a tuple), or None."""
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return None
    return tuple(value) if isinstance(value, list) else value


def _calls(source: str, methods):
    """``(line, method, {parameter: node})`` per ``.method(...)`` call."""
    for node in walk(source):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in methods:
            args = dict(zip(["name", "help", "labelnames"], node.args))
            args |= {kw.arg: kw.value for kw in node.keywords}
            yield node.lineno, node.func.attr, args


def metric_violations(source: str) -> list[str]:
    found = []
    for node in walk(source):
        if isinstance(node, ast.Call) and terminal_name(node.func) == "catalogued":
            name = _literal(node.args[1]) if len(node.args) > 1 else None
            if name not in CATALOG:
                found.append(f"{node.lineno}: catalogued({name!r}) is not catalogued")
    for line, kind, args in _calls(source, ("counter", "gauge", "histogram")):
        name = _literal(args.get("name"))
        labels = _literal(args["labelnames"]) if "labelnames" in args else ()
        spec = CATALOG.get(name)
        if spec is None:
            found.append(f"{line}: .{kind}({name!r}) is not catalogued")
        elif spec.kind != kind:
            found.append(f"{line}: {name!r} is a {spec.kind}, not a {kind}")
        elif labels is not None and labels != spec.labels:
            found.append(f"{line}: {name!r} has labels {spec.labels}, not {labels}")
    found += [
        f"{node.lineno}: branches on {terminal_name(node.value)}.enabled"
        for node in walk(source)
        if isinstance(node, ast.Attribute)
        and node.attr == "enabled"
        and isinstance(node.ctx, ast.Load)
        and terminal_name(node.value) in REGISTRIES
    ]
    return found


def trace_violations(source: str) -> list[str]:
    catalogs = {"span": SPANS, "event": EVENTS, "add_event": EVENTS}
    return [
        f"{line}: .{method}({name!r}) is not catalogued"
        for line, method, args in _calls(source, catalogs)
        if (name := _literal(args.get("name"))) not in catalogs[method]
    ]


def _outside_obs(checker) -> dict[str, list[str]]:
    found = {path: checker(text) for path, text in sources().items()}
    return {p: v for p, v in found.items() if v and not p.startswith("obs/")}


def test_metrics_come_from_the_catalog():
    assert _outside_obs(metric_violations) == {}


def test_spans_and_events_come_from_the_catalog():
    assert _outside_obs(trace_violations) == {}


@pytest.mark.parametrize(
    "checker, snippet, violation",
    [
        (metric_violations, 'r.counter("repro_bogus_total")', ".counter('repro_bogus"),
        (metric_violations, 'r.gauge("repro_extractions_total")', "is a counter"),
        (
            metric_violations,
            'r.counter("repro_flows_processed_total", "h", ("site",))',
            "has labels ('pipeline',), not ('site',)",
        ),
        (metric_violations, 'r.counter(pick(), "h")', ".counter(None) is not"),
        (metric_violations, 'r.counter(name="repro_bogus_total")', "is not catalogued"),
        (
            metric_violations,
            'r.histogram("repro_flows_processed_total")',
            "is a counter, not a histogram",
        ),
        (
            metric_violations,
            'r.counter("repro_flows_processed_total", labelnames=("site",))',
            "has labels ('pipeline',), not ('site',)",
        ),
        (metric_violations, "if metrics.enabled:\n    pass", "branches on metrics"),
        (
            metric_violations,
            'catalogued(r, "repro_bogus")',
            "catalogued('repro_bogus') is not",
        ),
        (metric_violations, "catalogued(r, pick())", "catalogued(None) is not"),
        (trace_violations, 'tracer.span("made.up")', ".span('made.up') is not"),
        (trace_violations, "tracer.span(pick())", ".span(None) is not"),
        (trace_violations, 'tracer.event("made.up")', ".event('made.up') is not"),
        (trace_violations, 'span.add_event("made.up")', ".add_event('made.up')"),
        (trace_violations, 'tracer.span(name="made.up")', ".span('made.up') is not"),
    ],
)
def test_the_catalog_checkers(checker, snippet, violation):
    (found,) = checker(snippet)
    assert violation in found


@pytest.mark.parametrize(
    "checker, snippet",
    [
        # Call shapes src/repro does not use outside obs/.
        (
            metric_violations,
            'r.histogram("repro_stage_seconds", labelnames=("pipeline", "stage"))',
        ),
        (
            metric_violations,
            'r.counter("repro_flows_processed_total", "h", ["pipeline"])',
        ),
        (trace_violations, 'tracer.span(name="fleet.run")'),
        (trace_violations, 'span.add_event("assembler.late_drop")'),
        # Labels that are not a literal are left to the registry to check.
        (metric_violations, 'r.counter("repro_flows_processed_total", "h", LABELS)'),
        (metric_violations, 'catalogued(registry, "repro_fleet_fed_rows_total")'),
        # Setting the flag and a non-registry ``.enabled`` are not branches.
        (metric_violations, "metrics.enabled = False"),
        (metric_violations, "if config.enabled:\n    pass"),
    ],
)
def test_the_catalog_checkers_pass_catalogued_calls(checker, snippet):
    assert checker(snippet) == []


def _strings(nodes) -> set[str]:
    return {
        node.value
        for node in nodes
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _named() -> set[str]:
    """Every string literal of the package, with ``instruments.py``
    narrowed to the PipelineInstruments bundle."""
    named: set[str] = set()
    for path, text in sources().items():
        nodes = walk(text)
        if path == "obs/instruments.py":
            body = parse(text).body
            (bundle,) = [c for c in body if getattr(c, "name", "") == BUNDLE]
            nodes = ast.walk(bundle)
        named |= _strings(nodes)
    return named


NAMED = _named()


@pytest.mark.parametrize(
    "kind, name",
    [("SPANS", n) for n in SPANS]
    + [("EVENTS", n) for n in EVENTS]
    + [("CATALOG", n) for n in CATALOG],
)
def test_catalogued_name_is_used(kind, name):
    assert name in NAMED, (
        f"{kind} entry {name!r} is named nowhere in src/repro outside "
        f"its catalog definition: delete it with the code that emitted it"
    )
