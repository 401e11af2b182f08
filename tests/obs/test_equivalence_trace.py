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
from repro.core.pipeline import AnomalyExtractor
from repro.core.session import run_session
from repro.detection.detector import DetectorConfig
from repro.detection.features import Feature
from repro.detection.metadata import Metadata
from repro.federation import Collector, Federator, split_trace
from repro.fleet.manager import FleetManager
from repro.obs.trace import Tracer
from repro.traffic import TraceGenerator, small_test

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
                config, interval_seconds=ddos_trace.interval_seconds, seed=1,
            ) as session:
                result = run_session(session, [ddos_trace.flows])
                return result, session.tracer.enabled

        on, traced = run(_config(obs={"trace_path": "unused.jsonl"}))
        off, untraced = run(_config())
        assert traced and not untraced
        assert _rendered(on.extractions) == _rendered(off.extractions)


class TestDisabledTracingIsFree:
    """A disabled tracer costs one null call per span or event (the
    per-call price is pinned by ``tests/obs/test_trace.py
    test_null_tracer_hands_out_the_shared_null_span``), so what code
    can change is how many calls an interval makes.  They are a few per
    interval whatever its flows: instrumentation that scales with rows
    or values breaks this."""

    INTERVALS = 24
    #: Today 98 calls (74 spans + 24 events) over 24 intervals.  At the
    #: last reading a null span + event took ~0.6 us and an interval of
    #: this trace ~0.6 ms, so even this bound stays under 1 % of one.
    CALLS_PER_INTERVAL = 8

    def calls(self, flows_per_interval):
        trace = TraceGenerator(small_test(flows_per_interval), seed=3).generate(
            self.INTERVALS
        )
        tracer = Tracer()
        api.extract(
            trace.flows, _config(), interval_seconds=trace.interval_seconds,
            seed=1, tracer=tracer,
        )
        return len(tracer.spans), sum(len(s.events) for s in tracer.spans)

    def test_calls_per_interval_do_not_grow_with_flows(self):
        spans, events = self.calls(1500)
        assert self.calls(3000) == (spans, events)
        assert spans + events <= self.CALLS_PER_INTERVAL * self.INTERVALS


class TestDetectionSpanExplainsAlarm:
    def test_alarmed_interval_carries_votes_and_rounds(self, ddos_trace):
        """"Why did this close take 12 ms": an alarmed interval's
        stage.detection span says how many clones alarmed, how many
        cleaning rounds their bin identifications ran and how many of
        those the KL kernel scored; a clean interval's span carries
        none of them."""
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
                assert "binid_scored" not in span.attributes
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
            scored = span.attributes["binid_scored"]
            assert scored == sum(
                clone.bin_identification.scored for clone in clones
            )
            # Each converged identification scores at least its stop;
            # none scores more rounds than it ran, plus the stop.
            assert len(clones) <= scored
            assert scored <= span.attributes["binid_rounds"] + len(clones)


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
            assert "reused" not in span.attributes  # online, no trials

    def test_post_mortem_spans_say_which_trials_reused_the_selection(
        self, table2_small
    ):
        """A trace shows which of the operator's support trials skipped
        the selection: the first of a sweep selects, the rest reuse it,
        and a trial on other meta-data selects again."""
        metadata = Metadata()
        metadata.add(Feature.DST_PORT, np.array([7000], dtype=np.uint64))
        other = Metadata()
        other.add(Feature.DST_PORT, np.array([25], dtype=np.uint64))
        tracer = Tracer()
        extractor = AnomalyExtractor(_config(), seed=0, tracer=tracer)
        trials = [(metadata, 200), (metadata, 100), (other, 50), (other, 25)]
        results = [
            extractor.extract_with_metadata(
                table2_small.flows, meta, min_support=support
            )
            for meta, support in trials
        ]
        spans = [s for s in tracer.spans if s.name == "stage.mining"]
        assert [s.attributes["reused"] for s in spans] == [
            False, True, False, True,
        ]
        for span, result in zip(spans, results, strict=True):
            assert span.attributes["selected"] == result.prefilter.selected_flows
            assert span.attributes["min_support"] == result.mining.min_support


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
