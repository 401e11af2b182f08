"""Bounded extraction retention (`streaming.keep_extractions=False`).

Closes the ROADMAP open item: with both `keep_reports=False` and
`keep_extractions=False` a noisy unbounded pipe holds no per-interval
state: emitted extractions (each pinning its prefiltered FlowTable) are
returned to the caller and never retained by the session.
"""

import gc
import weakref

import repro.api as api
from repro.core import ExtractionConfig
from repro.core.session import run_session
from repro.flows import iter_intervals

_CONFIG = dict(
    detector={"bins": 256, "training_intervals": 16},
    min_support=300,
)


def _chunks(trace):
    return [view.flows for view in iter_intervals(trace.flows, 900.0)]


class TestKeepExtractionsFalse:
    def test_emitted_results_match_the_retained_run(self, ddos_trace):
        kept, dropped = [], []
        with api.session(
            ExtractionConfig(**_CONFIG),
            seed=1, interval_seconds=900.0,
        ) as retaining:
            for chunk in _chunks(ddos_trace):
                kept.extend(retaining.feed(chunk))
            kept.extend(retaining.flush())
            retained = retaining.result()
        with api.session(
            ExtractionConfig(keep_extractions=False, **_CONFIG),
            seed=1, interval_seconds=900.0,
        ) as flat:
            for chunk in _chunks(ddos_trace):
                dropped.extend(
                    e.render() for e in flat.feed(chunk)
                )
            dropped.extend(e.render() for e in flat.flush())
            summary = flat.result()
        # Same pipeline output, chunk by chunk...
        assert dropped == [e.render() for e in kept]
        # ...but nothing retained: counters only.
        assert summary.extractions == []
        assert summary.extraction_count == len(kept)
        assert retained.extraction_count == len(kept)
        assert summary.intervals == retained.intervals
        assert summary.flows == retained.flows

    def test_session_pins_no_emitted_extraction(self, ddos_trace):
        with api.session(
            ExtractionConfig(keep_extractions=False, **_CONFIG),
            seed=1, interval_seconds=900.0,
        ) as streamer:

            def feed(chunk):
                refs = []
                for extraction in streamer.feed(chunk):
                    # The report is built from the result alone...
                    report = streamer.report_for(extraction)
                    assert report.interval == extraction.interval
                    refs.append(weakref.ref(extraction))
                return refs

            emitted = [
                ref for chunk in _chunks(ddos_trace) for ref in feed(chunk)
            ]
            streamer.flush()
            assert emitted
            assert streamer.extractions == []
            # ...and once the caller drops a result, nothing the
            # session holds keeps it alive.
            gc.collect()
            assert [ref() for ref in emitted] == [None] * len(emitted)

    def test_sink_still_receives_every_report(self, ddos_trace):
        from repro.incidents import IncidentStore

        with IncidentStore(":memory:") as sink, api.session(
            ExtractionConfig(keep_extractions=False, **_CONFIG),
            seed=1, interval_seconds=900.0, sink=sink,
        ) as streamer:
            result = run_session(streamer, _chunks(ddos_trace))
            assert result.extraction_count > 0
            assert len(sink) == result.extraction_count
            assert sink.last_interval() == result.intervals - 1

    def test_default_retains_for_batch_parity(self, ddos_trace):
        with api.session(
            ExtractionConfig(**_CONFIG), seed=1, interval_seconds=900.0
        ) as streamer:
            result = run_session(streamer, _chunks(ddos_trace))
        assert result.extractions
        assert result.extraction_count == len(result.extractions)
