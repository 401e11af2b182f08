"""Bounded extraction retention (`streaming.keep_extractions=False`).

Closes the ROADMAP open item: with both `keep_reports=False` and
`keep_extractions=False` a noisy unbounded pipe holds no per-interval
state for longer than one chunk round - emitted extractions (each
pinning its prefiltered FlowTable) and their report state are evicted
once the caller has had the chance to consume them.
"""

import pytest

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

    def test_state_evicted_after_next_chunk(self, ddos_trace):
        from repro.errors import ExtractionError

        with api.session(
            ExtractionConfig(keep_extractions=False, **_CONFIG),
            seed=1, interval_seconds=900.0,
        ) as streamer:
            emitted = []
            for chunk in _chunks(ddos_trace):
                results = streamer.feed(chunk)
                for extraction in results:
                    # Within the same round the report is available...
                    assert streamer.report_for(extraction) is not None
                emitted.extend(results)
            streamer.flush()
            assert streamer.extractions == []
            # ...but state does not accumulate across rounds: at most
            # the last batch is pinned.
            assert len(streamer._report_state) <= 1
            first = emitted[0]
            with pytest.raises(ExtractionError, match="unknown extraction"):
                streamer.report_for(first)

    def test_sink_still_receives_every_report(self, ddos_trace):
        from repro.sinks import MemorySink

        sink = MemorySink()
        with api.session(
            ExtractionConfig(keep_extractions=False, **_CONFIG),
            seed=1, interval_seconds=900.0, sink=sink,
        ) as streamer:
            result = run_session(streamer, _chunks(ddos_trace))
        assert result.extraction_count > 0
        assert len(sink.reports) == result.extraction_count
        assert sink.last_interval == result.intervals - 1

    def test_default_retains_for_batch_parity(self, ddos_trace):
        with api.session(
            ExtractionConfig(**_CONFIG), seed=1, interval_seconds=900.0
        ) as streamer:
            result = run_session(streamer, _chunks(ddos_trace))
        assert result.extractions
        assert result.extraction_count == len(result.extractions)
