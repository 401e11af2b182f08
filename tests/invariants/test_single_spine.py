"""One interval step: the guard that keeps the fork from coming back,
and the proof that its metrics mean one thing for every input.

The paper's Fig. 3 is one pipeline.  Every source of closed intervals
- batch windowing, the stream assembler, the federator's merge - hands
them to :meth:`repro.core.session.IntervalSpine.step`; nothing else
drives a detector bank, pushes a report into a sink, or ages a sink.
"""

import ast

import numpy as np
import pytest

import repro.api as api
from repro.core.config import ExtractionConfig
from repro.detection.detector import DetectorConfig
from repro.federation import Collector, Federator, split_trace
from repro.obs.metrics import MetricsRegistry
from tests.invariants.source import sources, walk

#: Where the primitives themselves live.
ALLOWED = ("detection/", "incidents/", "sinks.py")

#: The step's home and its two input implementations.  A bank's
#: ``observe_snapshots`` has no caller in the package.
EXPECTED = {
    "bank.observe": ["core/session.py"],
    "bank.observe_counts": ["federation/federator.py"],
    "sink.append": ["core/session.py"],
    "notify_sink_interval": ["core/session.py"],
}


def _receiver(node: ast.expr) -> str:
    """Terminal name of a call receiver: ``self._sink`` -> ``_sink``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _spine_calls(nodes):
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "notify_sink_interval":
            yield "notify_sink_interval"
        if not isinstance(func, ast.Attribute):
            continue
        receiver = _receiver(func.value).lower()
        if func.attr in ("observe_counts", "observe_snapshots"):
            yield f"bank.{func.attr}"
        elif func.attr == "observe" and "bank" in receiver:
            yield "bank.observe"
        elif func.attr == "append" and ("sink" in receiver or "store" in receiver):
            yield "sink.append"


def test_one_call_site_per_spine_primitive():
    found: dict[str, list[str]] = {kind: [] for kind in EXPECTED}
    for path, text in sources().items():
        if path.startswith(ALLOWED):
            continue
        for kind in _spine_calls(walk(text)):
            found.setdefault(kind, []).append(path)
    assert found == EXPECTED


def test_federator_builds_no_bank_and_no_report():
    """The federator is a source: the detector bank and the report
    document are the step's to build."""
    constructed = {
        node.func.id
        for node in walk(sources()["federation/federator.py"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert not constructed & {"DetectorBank", "ExtractionReport"}


# ----------------------------------------------------------------------
# Metrics mean one thing, whatever the input
# ----------------------------------------------------------------------
#: Unanimous 5-of-5 voting: on the DDoS trace two of the three alarms
#: vote no value at all, the gate the inputs used to count differently.
DETECTOR = DetectorConfig(clones=5, bins=256, vote_threshold=5, training_intervals=16)
INTERVAL_SECONDS = 900.0


def _chunked(table, rows=517):
    for lo in range(0, len(table), rows):
        yield table.select(np.arange(lo, min(lo + rows, len(table))))


def _stream(trace, registry, **overrides):
    result = api.stream(
        _chunked(trace.flows),
        ExtractionConfig(detector=DETECTOR, min_support=300, **overrides),
        interval_seconds=INTERVAL_SECONDS,
        seed=1,
        metrics=registry,
    )
    return (
        "default",
        result.detection.alarm_intervals(),
        result.intervals,
        result.flows,
    )


def _one_shot(trace, registry):
    return _stream(trace, registry)


def _windowed(trace, registry):
    return _stream(trace, registry, window_intervals=3)


def _digest(trace, registry):
    sites = ("east", "west")
    parts = split_trace(trace.flows, sites, "dst_ip%2")
    digests = {
        site: Collector(site=site, config=DETECTOR, seed=1).run(
            parts[site], INTERVAL_SECONDS
        )
        for site in sites
    }
    federator = Federator(
        sites=sites,
        config=DETECTOR,
        seed=1,
        interval_seconds=INTERVAL_SECONDS,
        min_support=300,
        metrics=registry,
    )
    released = []
    for i in range(len(digests["east"])):
        for site in sites:
            released.extend(federator.add(digests[site][i]))
    released.extend(federator.finish())
    return (
        "federation",
        [fi.interval for fi in released if fi.alarm],
        len(released),
        sum(fi.flow_count for fi in released),
    )


def _counter(registry, name, pipeline):
    for family in registry.families():
        if family.name == name:
            return family.labels(pipeline).value
    raise AssertionError(f"metric {name} not registered")


def _stage_counts(registry, pipeline):
    for family in registry.families():
        if family.name == "repro_stage_seconds":
            return {
                values[1]: child.count
                for values, child in family.samples()
                if values[0] == pipeline
            }
    raise AssertionError("repro_stage_seconds not registered")


@pytest.mark.parametrize("drive", [_one_shot, _windowed, _digest])
def test_interval_metrics_mean_one_thing(ddos_trace, drive):
    registry = MetricsRegistry()
    pipeline, alarm_intervals, intervals, flows = drive(ddos_trace, registry)
    # The trace must exercise the gate the inputs used to disagree on:
    # an alarm with empty meta-data is still an alarmed interval.
    extractions = _counter(registry, "repro_extractions_total", pipeline)
    assert len(alarm_intervals) > extractions >= 1

    alarmed = _counter(registry, "repro_intervals_alarmed_total", pipeline)
    assert alarmed == len(alarm_intervals)
    assert _counter(registry, "repro_intervals_processed_total", pipeline) == intervals
    assert _counter(registry, "repro_flows_processed_total", pipeline) == flows
    stages = _stage_counts(registry, pipeline)
    assert stages["detection"] == intervals
    assert stages["triage"] == 0  # no sink attached
    assert extractions <= stages["mining"] <= len(alarm_intervals)
