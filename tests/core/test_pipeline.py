"""Unit tests for the AnomalyExtractor pipeline."""

import numpy as np
import pytest

import repro.api as api
from repro.core.config import ExtractionConfig
from repro.core.pipeline import AnomalyExtractor, suggest_min_support
from repro.core.session import run_session
from repro.detection.detector import DetectorConfig
from repro.detection.features import Feature
from repro.detection.metadata import Metadata
from repro.errors import ExtractionError
from repro.flows.table import FlowTable


def _config(min_support=300, prefilter="union"):
    return ExtractionConfig(
        detector=DetectorConfig(
            clones=3, bins=256, vote_threshold=3, training_intervals=16
        ),
        min_support=min_support,
        prefilter_mode=prefilter,
    )


@pytest.fixture(scope="module")
def ddos_extraction(ddos_trace):
    return api.extract(
        ddos_trace.flows, _config(),
        interval_seconds=ddos_trace.interval_seconds, seed=1,
    )


class TestOnlinePipeline:
    def test_ddos_interval_flagged(self, ddos_extraction):
        assert 24 in ddos_extraction.flagged_intervals

    def test_training_prefix_never_flagged(self, ddos_extraction):
        assert all(i >= 16 for i in ddos_extraction.flagged_intervals)

    def test_extraction_contains_victim_itemset(
        self, ddos_extraction, small_profile
    ):
        victim = small_profile.internal_base + 5
        extraction = next(
            e for e in ddos_extraction.extractions if e.interval == 24
        )
        tops = [s.as_dict() for s in extraction.itemsets]
        assert any(d.get(Feature.DST_IP) == victim for d in tops)

    def test_prefilter_reduces_input(self, ddos_extraction):
        extraction = next(
            e for e in ddos_extraction.extractions if e.interval == 24
        )
        assert 0 < extraction.prefilter.selected_flows
        assert (
            extraction.prefilter.selected_flows
            <= extraction.prefilter.input_flows
        )

    def test_cost_reduction_positive(self, ddos_extraction):
        extraction = next(
            e for e in ddos_extraction.extractions if e.interval == 24
        )
        assert extraction.classification_cost_reduction > 10

    def test_render_contains_table(self, ddos_extraction):
        extraction = ddos_extraction.extractions[0]
        text = extraction.render()
        assert "prefilter" in text
        assert "support" in text

    def test_detection_run_attached(self, ddos_extraction, ddos_trace):
        assert ddos_extraction.detection is not None
        assert ddos_extraction.detection.n_intervals == ddos_trace.n_intervals

    def test_quiet_interval_returns_none(self, small_profile):
        from repro.traffic import TraceGenerator

        trace = TraceGenerator(small_profile, seed=11).generate(18)
        results = api.extract(
            trace.flows, _config(), interval_seconds=900.0, seed=1
        )
        # Pure baseline: at most a rare statistical alarm.
        assert len(results.extractions) <= 1


class TestOfflinePipeline:
    def test_extract_with_explicit_metadata(self, table2_small):
        meta = Metadata()
        meta.add(Feature.DST_PORT, np.array([7000], dtype=np.uint64))
        extractor = AnomalyExtractor(_config(min_support=50), seed=0)
        result = extractor.extract_with_metadata(table2_small.flows, meta)
        assert result.prefilter.selected_flows == (
            table2_small.component_counts["flooding_dport_7000"]
        )
        assert any(
            s.as_dict().get(Feature.DST_PORT) == 7000 for s in result.itemsets
        )

    def test_min_support_override(self, table2_small):
        meta = Metadata()
        meta.add(Feature.DST_PORT, np.array([7000], dtype=np.uint64))
        extractor = AnomalyExtractor(_config(min_support=10**9), seed=0)
        result = extractor.extract_with_metadata(
            table2_small.flows, meta, min_support=50
        )
        assert result.mining.min_support == 50
        assert result.itemsets

    def test_empty_interval_rejected(self):
        extractor = AnomalyExtractor(_config(), seed=0)
        with pytest.raises(ExtractionError, match="empty"):
            extractor.extract_with_metadata(FlowTable.empty(), Metadata())

    def test_intersection_mode_can_come_up_empty(self, table2_small):
        meta = Metadata()
        meta.add(Feature.DST_PORT, np.array([7000], dtype=np.uint64))
        meta.add(Feature.DST_IP, np.array([1], dtype=np.uint64))  # nonsense
        extractor = AnomalyExtractor(
            _config(min_support=50, prefilter="intersection"), seed=0
        )
        result = extractor.extract_with_metadata(table2_small.flows, meta)
        assert result.prefilter.selected_flows == 0
        assert result.itemsets == []


class TestSatelliteFixes:
    def test_reports_property_is_a_copy(self, tiny_flows):
        from repro.detection.manager import DetectorBank

        bank = DetectorBank(DetectorConfig(bins=64), seed=0)
        assert bank.reports == []
        bank.observe(tiny_flows)
        assert len(bank.reports) == 1
        # A copy, not the live list.
        bank.reports.clear()
        assert len(bank.reports) == 1

    def test_batch_detection_uses_public_reports(self, tiny_flows):
        with api.session(
            _config(), interval_seconds=900.0, seed=0
        ) as session:
            result = run_session(session, [tiny_flows])
            public = session.detector_bank.reports
        assert len(result.detection.reports) == len(public) == 1
        assert all(
            ours is theirs
            for ours, theirs in zip(result.detection.reports, public)
        )

    def test_empty_prefilter_mine_respects_maximal_only(self, table2_small):
        meta = Metadata()
        meta.add(Feature.DST_PORT, np.array([7000], dtype=np.uint64))
        meta.add(Feature.DST_IP, np.array([1], dtype=np.uint64))  # nonsense
        for maximal_only in (True, False):
            config = ExtractionConfig(
                detector=DetectorConfig(
                    clones=3, bins=256, vote_threshold=3,
                    training_intervals=16,
                ),
                min_support=50,
                prefilter_mode="intersection",
                maximal_only=maximal_only,
            )
            extractor = AnomalyExtractor(config, seed=0)
            result = extractor.extract_with_metadata(table2_small.flows, meta)
            assert result.prefilter.selected_flows == 0
            assert result.itemsets == []
            assert result.mining.n_transactions == 0

    def test_maximal_only_false_reaches_miner(self, table2_small):
        meta = Metadata()
        meta.add(Feature.DST_PORT, np.array([7000], dtype=np.uint64))
        base = dict(
            detector=DetectorConfig(
                clones=3, bins=256, vote_threshold=3, training_intervals=16
            ),
            min_support=50,
        )
        maximal = AnomalyExtractor(
            ExtractionConfig(**base, maximal_only=True), seed=0
        ).extract_with_metadata(table2_small.flows, meta)
        everything = AnomalyExtractor(
            ExtractionConfig(**base, maximal_only=False), seed=0
        ).extract_with_metadata(table2_small.flows, meta)
        assert len(everything.itemsets) >= len(maximal.itemsets)
        assert everything.mining.all_frequent == maximal.mining.all_frequent


class TestSuggestMinSupport:
    def test_default_three_percent(self):
        assert suggest_min_support(100_000) == 3000

    def test_custom_fraction(self):
        assert suggest_min_support(350_872, 0.0285) == 10_000 - 1  # floor

    def test_at_least_one(self):
        assert suggest_min_support(5) == 1

    def test_validation(self):
        with pytest.raises(ExtractionError):
            suggest_min_support(100, fraction=0.0)
        with pytest.raises(ExtractionError):
            suggest_min_support(100, fraction=1.0)


class TestInitCleanup:
    def test_bank_init_failure_opens_no_store(self, tmp_path, monkeypatch):
        """The bank is built before config.store_path is opened, so a
        bank that refuses to build leaves no SQLite connection (or
        file) behind."""
        import repro.core.pipeline as pipeline_mod

        def exploding_bank(*args, **kwargs):
            raise RuntimeError("no bank")

        monkeypatch.setattr(pipeline_mod, "DetectorBank", exploding_bank)
        path = tmp_path / "inc.db"
        with pytest.raises(RuntimeError, match="no bank"):
            AnomalyExtractor(ExtractionConfig(store_path=str(path)))
        assert not path.exists()
