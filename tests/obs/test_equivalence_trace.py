"""Tracing must be free: spans on vs off is byte-identical output.

The NULL_TRACER discipline mirrors the metrics one - instrumented code
never branches on whether tracing is enabled, so enabling a tracer may
never change what the pipeline extracts, in batch, stream, or fleet
mode.
"""

import time

import numpy as np

import repro.api as api
from repro.core.config import ExtractionConfig
from repro.core.session import run_session
from repro.detection.detector import DetectorConfig
from repro.federation import Collector, Federator, split_trace
from repro.fleet.manager import FleetManager
from repro.obs.trace import Tracer

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


class TestTraceOnVsOff:
    def test_batch_output_byte_identical(self, ddos_trace):
        def run(tracer):
            return api.extract(
                ddos_trace.flows, _config(),
                interval_seconds=ddos_trace.interval_seconds, seed=1,
                tracer=tracer,
            )

        off = run(None)
        tracer = Tracer()
        on = run(tracer)
        assert off.extractions  # the comparison is not vacuous
        assert _rendered(on.extractions) == _rendered(off.extractions)
        assert on.flagged_intervals == off.flagged_intervals
        assert tracer.spans  # and the traced run really recorded

    def test_stream_output_byte_identical(self, ddos_trace):
        def run(tracer):
            return api.stream(
                _chunked(ddos_trace.flows, CHUNK_ROWS), _config(),
                interval_seconds=ddos_trace.interval_seconds, seed=1,
                tracer=tracer,
            )

        off = run(None)
        on = run(Tracer())
        assert off.extractions
        assert _rendered(on.extractions) == _rendered(off.extractions)
        assert on.late_dropped == off.late_dropped

    def test_reports_byte_identical_via_json(self, ddos_trace):
        def reports(tracer):
            collected = []
            api.extract(
                ddos_trace.flows, _config(),
                interval_seconds=ddos_trace.interval_seconds, sink=collected,
                seed=1, tracer=tracer,
            )
            return [r.to_json() for r in collected]

        assert reports(Tracer()) == reports(None)

    def test_fleet_incidents_byte_identical(self, ddos_trace):
        def run(tracer):
            with FleetManager(
                {"linkA": _config(), "linkB": _config()},
                route="dst_ip",
                interval_seconds=ddos_trace.interval_seconds,
                seed=1,
                tracer=tracer,
            ) as fleet:
                for chunk in _chunked(ddos_trace.flows, CHUNK_ROWS):
                    fleet.feed(chunk)
                fleet.finish()
                return [i.to_dict() for i in fleet.incidents()]

        off = run(None)
        tracer = Tracer()
        on = run(tracer)
        assert off  # incidents found either way
        assert on == off
        names = [s.name for s in tracer.spans]
        assert names.count("session.run") == 2  # one per pipeline
        assert "fleet.run" in names and "fleet.rank" in names

    def test_trace_path_config_does_not_change_output(self, ddos_trace):
        def run(config):
            with api.session(
                config, mode="batch",
                interval_seconds=ddos_trace.interval_seconds, seed=1,
            ) as session:
                result = run_session(session, [ddos_trace.flows])
                return result, session.extractor.tracer.enabled

        on, traced = run(_config(obs={"trace_path": "unused.jsonl"}))
        off, untraced = run(_config())
        assert traced and not untraced
        assert _rendered(on.extractions) == _rendered(off.extractions)


class TestDetectionSpanExplainsAlarm:
    def test_alarmed_interval_carries_votes_and_rounds(self, ddos_trace):
        """"Why did this close take 12 ms": an alarmed interval's
        stage.detection span says how many clones alarmed and how many
        cleaning rounds their bin identifications ran; a clean
        interval's span carries neither."""
        tracer = Tracer()
        run = api.extract(
            ddos_trace.flows, _config(),
            interval_seconds=ddos_trace.interval_seconds, seed=1,
            tracer=tracer,
        ).detection
        spans = [s for s in tracer.spans if s.name == "stage.detection"]
        assert len(spans) == run.n_intervals
        alarmed = [s for s in spans if s.attributes["alarm"]]
        assert alarmed  # the comparison is not vacuous
        for span, report in zip(spans, run.reports):
            if not report.alarm:
                assert "alarm_votes" not in span.attributes
                assert "binid_rounds" not in span.attributes
                continue
            clones = [
                clone
                for obs in report.observations.values()
                for clone in obs.clones
                if clone.alarm
            ]
            assert span.attributes["alarm_votes"] == len(clones) >= 1
            assert span.attributes["binid_rounds"] == sum(
                clone.bin_identification.rounds for clone in clones
            )


class TestDetectionSpanSplitsItsTime:
    def _spans(self, tracer):
        spans = [s for s in tracer.spans if s.name == "stage.detection"]
        assert spans
        return spans

    def _assert_split(self, spans):
        for span in spans:
            bin_s = span.attributes["bin_s"]
            score_s = span.attributes["score_s"]
            assert bin_s > 0 and score_s > 0
            assert bin_s + score_s <= span.duration

    def test_batch_spans_carry_bin_and_score_seconds(self, ddos_trace):
        """Where a close's detection time went: binning the value
        counts (column sorts included) vs scoring the clones, both
        timed inside the stage.detection span - on the bank's clock,
        so the tracer runs on the same one."""
        tracer = Tracer(clock=time.perf_counter)
        result = api.extract(
            ddos_trace.flows, _config(),
            interval_seconds=ddos_trace.interval_seconds, seed=1,
            tracer=tracer,
        )
        spans = self._spans(tracer)
        assert len(spans) == result.detection.n_intervals
        self._assert_split(spans)

    def test_federated_spans_carry_bin_and_score_seconds(self, ddos_trace):
        detector = _config().detector
        sites = ("east", "west")
        parts = split_trace(ddos_trace.flows, sites, "dst_ip%2")
        tracer = Tracer(clock=time.perf_counter)
        federator = Federator(
            sites=sites, config=detector, seed=1,
            interval_seconds=ddos_trace.interval_seconds, min_support=300,
            tracer=tracer,
        )
        federator.add_all(
            (digest, None)
            for site in sites
            for digest in Collector(site=site, config=detector, seed=1).run(
                parts[site], ddos_trace.interval_seconds
            )
        )
        federator.finish()
        self._assert_split(self._spans(tracer))


class TestMiningSpanExplainsCost:
    def test_span_attributes_match_the_stored_result(self, ddos_trace):
        """"Why was this close slow": a stage.mining span carries the
        number of frequent item-sets the miner counted and how many
        levels it climbed - and they are the result's own numbers, the
        same with the tracer on or off."""
        def run(tracer):
            return api.extract(
                ddos_trace.flows, _config(),
                interval_seconds=ddos_trace.interval_seconds, seed=1,
                tracer=tracer,
            ).extractions

        tracer = Tracer()
        traced, untraced = run(tracer), run(None)
        spans = [
            s for s in tracer.spans
            if s.name == "stage.mining" and "itemsets" in s.attributes
        ]
        assert len(spans) == len(traced) == len(untraced) >= 1
        for span, on, off in zip(spans, traced, untraced):
            assert on.mining.all_frequent == off.mining.all_frequent
            assert list(on.mining.all_frequent) == list(off.mining.all_frequent)
            assert span.attributes["selected"] == on.prefilter.selected_flows
            assert span.attributes["min_support"] == on.mining.min_support
            assert span.attributes["itemsets"] == len(on.mining.itemsets)
            assert span.attributes["frequent"] == len(on.mining.all_frequent)
            assert span.attributes["levels"] == on.mining.max_size >= 1


class TestFleetTraceTree:
    def test_session_roots_nest_under_fleet_run(self, ddos_trace):
        tracer = Tracer()
        with FleetManager(
            {"linkA": _config(), "linkB": _config()},
            route="dst_ip",
            interval_seconds=ddos_trace.interval_seconds,
            seed=1,
            tracer=tracer,
        ) as fleet:
            for chunk in _chunked(ddos_trace.flows, CHUNK_ROWS):
                fleet.feed(chunk)
            fleet.finish()
            fleet.incidents()
        spans = tracer.spans
        fleet_root = next(s for s in spans if s.name == "fleet.run")
        sessions = [s for s in spans if s.name == "session.run"]
        ranks = [s for s in spans if s.name == "fleet.rank"]
        assert all(s.parent_id == fleet_root.span_id for s in sessions)
        assert all(s.trace_id == fleet_root.trace_id for s in spans)
        assert all(r.parent_id == fleet_root.span_id for r in ranks)
        # Interval spans nest under their own pipeline's session root.
        session_ids = {s.span_id for s in sessions}
        intervals = [s for s in spans if s.name == "session.interval"]
        assert intervals
        assert all(s.parent_id in session_ids for s in intervals)
