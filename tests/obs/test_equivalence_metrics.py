"""Observability must be free: metrics on vs off is byte-identical.

Every instrument call is side-effect-only, so enabling a registry may
never change what the pipeline extracts — plus the fleet conservation
invariant: every row fed is routed to exactly one pipeline.
"""

import numpy as np
import pytest

import repro.api as api
from repro.core.config import ExtractionConfig
from repro.core.session import run_session
from repro.detection.detector import DetectorConfig
from repro.fleet.manager import FleetManager
from repro.obs.metrics import MetricsRegistry

CHUNK_ROWS = 517


def _config(**overrides):
    return ExtractionConfig(
        detector=DetectorConfig(
            clones=3, bins=256, vote_threshold=3, training_intervals=16
        ),
        min_support=300,
        **overrides,
    )


def _chunked(table, rows):
    for lo in range(0, len(table), rows):
        yield table.select(np.arange(lo, min(lo + rows, len(table))))


def _rendered(extractions):
    return "\n\n".join(e.render() for e in extractions)


def _value(registry, name, *labels):
    for family in registry.families():
        if family.name == name:
            return family.labels(*labels).value
    raise AssertionError(f"metric {name} not registered")


class TestMetricsOnVsOff:
    def test_batch_output_byte_identical(self, ddos_trace):
        off = api.extract(
            ddos_trace.flows, _config(),
            interval_seconds=ddos_trace.interval_seconds, seed=1,
        )
        on = api.extract(
            ddos_trace.flows, _config(),
            interval_seconds=ddos_trace.interval_seconds, seed=1,
            metrics=MetricsRegistry(),
        )
        assert off.extractions  # the comparison is not vacuous
        assert _rendered(on.extractions) == _rendered(off.extractions)
        assert on.flagged_intervals == off.flagged_intervals

    def test_stream_output_byte_identical(self, ddos_trace):
        def run(metrics):
            return api.stream(
                _chunked(ddos_trace.flows, CHUNK_ROWS), _config(),
                interval_seconds=ddos_trace.interval_seconds, seed=1,
                metrics=metrics,
            )

        off = run(None)
        on = run(MetricsRegistry())
        assert off.extractions
        assert _rendered(on.extractions) == _rendered(off.extractions)
        assert on.late_dropped == off.late_dropped
        assert on.late_dropped_pre_origin == off.late_dropped_pre_origin
        assert on.late_dropped_closed == off.late_dropped_closed

    def test_reports_byte_identical_via_json(self, ddos_trace):
        def reports(metrics):
            collected = []
            api.extract(
                ddos_trace.flows, _config(),
                interval_seconds=ddos_trace.interval_seconds, sink=collected,
                seed=1, metrics=metrics,
            )
            return [r.to_json() for r in collected]

        assert reports(MetricsRegistry()) == reports(None)

    def test_obs_config_section_does_not_change_output(self, ddos_trace):
        with api.session(
            _config(obs={"enabled": True}),
            interval_seconds=ddos_trace.interval_seconds, seed=1,
        ) as session:
            on = run_session(session, [ddos_trace.flows])
            assert session.metrics.enabled
        off = api.extract(
            ddos_trace.flows, _config(),
            interval_seconds=ddos_trace.interval_seconds, seed=1,
        )
        assert _rendered(on.extractions) == _rendered(off.extractions)


class TestFleetConservation:
    @pytest.fixture(scope="class")
    def fed(self, ddos_trace):
        registry = MetricsRegistry()
        names = ("linkA", "linkB")
        with FleetManager(
            {name: _config() for name in names},
            route="dst_ip",
            interval_seconds=ddos_trace.interval_seconds,
            seed=1,
            metrics=registry,
        ) as fleet:
            total = 0
            for chunk in _chunked(ddos_trace.flows, CHUNK_ROWS):
                fleet.feed(chunk)
                total += len(chunk)
            fleet.finish()
            fleet.incidents()
        return registry, names, total

    def test_sum_of_routed_equals_fed(self, fed):
        registry, names, total = fed
        fed_rows = _value(registry, "repro_fleet_fed_rows_total")
        assert fed_rows == total
        routed = sum(
            _value(registry, "repro_fleet_routed_rows_total", name)
            for name in names
        )
        assert routed == fed_rows
        assert _value(registry, "repro_fleet_misrouted_rows_total") == 0

    def test_per_pipeline_flow_counters_cover_the_trace(self, fed):
        registry, names, total = fed
        processed = sum(
            _value(registry, "repro_flows_processed_total", name)
            for name in names
        )
        # No late drops in an in-order trace: every routed row reaches
        # a detector bank.
        assert processed == total

    def test_ranking_latency_recorded(self, fed):
        registry, _, _ = fed
        for family in registry.families():
            if family.name == "repro_fleet_ranking_seconds":
                assert family.labels().count >= 1
                return
        raise AssertionError("repro_fleet_ranking_seconds not registered")


class TestMetricsJsonlTee:
    def test_session_tees_snapshots_per_interval(
        self, tmp_path, ddos_trace
    ):
        import json

        path = tmp_path / "metrics.jsonl"
        config = _config(
            obs={"enabled": True, "jsonl_path": str(path)}
        )
        result = api.stream(
            _chunked(ddos_trace.flows, CHUNK_ROWS), config,
            interval_seconds=ddos_trace.interval_seconds, seed=1,
        )
        intervals = result.detection.n_intervals
        lines = path.read_text().splitlines()
        assert len(lines) == intervals
        last = json.loads(lines[-1])
        assert last["interval"] == intervals - 1
        names = {m["name"] for m in last["metrics"]["metrics"]}
        assert "repro_intervals_processed_total" in names
