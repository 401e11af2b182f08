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
from repro.errors import ConfigError, ExtractionError
from repro.flows.table import FlowTable
from repro.mining import miners
from repro.mining.transactions import TransactionSet
from repro.obs.trace import Tracer


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

    @pytest.mark.parametrize("miner", sorted(miners))
    def test_support_sweep_equals_a_fresh_extractor_per_trial(
        self, table2_small, miner
    ):
        """The operator's 2-3 trials on one extractor reuse the first
        trial's selection and answer exactly what a fresh extractor
        answers at each support."""
        meta = _sweep_metadata()
        config = ExtractionConfig(
            detector=_config().detector, min_support=10**9, miner=miner
        )
        tracer = Tracer()
        swept = AnomalyExtractor(config, seed=0, tracer=tracer)
        for support in (200, 100, 50):
            got = swept.extract_with_metadata(
                table2_small.flows, meta, min_support=support
            )
            want = AnomalyExtractor(config, seed=0).extract_with_metadata(
                table2_small.flows, meta, min_support=support
            )
            assert _outcome(got) == _outcome(want)
            assert got.mining.itemsets
        assert _reused(tracer) == [False, True, True]

    def test_changed_inputs_are_selected_again(self, table2_small):
        """An in-place ``Metadata.add``, a new table with equal columns
        and the other prefilter mode each select afresh."""
        flows = table2_small.flows
        meta = _sweep_metadata()
        # Two features, so the two modes select different flows.
        meta.add(Feature.PROTOCOL, np.array([17], dtype=np.uint64))
        tracer = Tracer()
        extractor = AnomalyExtractor(
            _config(min_support=50), seed=0, tracer=tracer
        )

        def trial(flows, meta, mode="union"):
            fresh = AnomalyExtractor(_config(50, mode), seed=0)
            want = fresh.extract_with_metadata(flows, meta)
            got = extractor.extract_with_metadata(flows, meta)
            assert _outcome(got) == _outcome(want)

        trial(flows, meta)
        meta.add(Feature.DST_PORT, np.array([80], dtype=np.uint64))
        trial(flows, meta)
        extractor.config = _config(min_support=50, prefilter="intersection")
        trial(flows, meta, "intersection")
        trial(FlowTable.concat([flows]), meta, "intersection")
        assert _reused(tracer) == [False] * 4

    def test_only_the_post_mortem_verb_holds_a_selection(
        self, table2_small, tiny_flows
    ):
        with api.session(_config(), interval_seconds=900.0, seed=0) as session:
            run_session(session, [tiny_flows])
            assert session._trial is None
        extractor = AnomalyExtractor(_config(min_support=50), seed=0)
        extractor.extract_with_metadata(table2_small.flows, _sweep_metadata())
        assert extractor._trial is not None
        extractor.close()
        assert extractor._trial is None

    @pytest.mark.parametrize("bad", [0, -5, True, 2.5, "50"])
    def test_min_support_override_checked_before_selection(
        self, table2_small, bad
    ):
        """The override is held to ``[mining] min_support``'s check; a
        refused value selects nothing (an empty table would otherwise
        be the error) and leaves the kept selection alone."""
        extractor = AnomalyExtractor(_config(min_support=50), seed=0)
        with pytest.raises(ConfigError, match="min_support"):
            extractor.extract_with_metadata(
                FlowTable.empty(), Metadata(), min_support=bad
            )
        result = extractor.extract_with_metadata(
            table2_small.flows, _sweep_metadata()
        )
        kept = extractor._trial
        with pytest.raises(ConfigError, match="min_support"):
            extractor.extract_with_metadata(
                table2_small.flows, _sweep_metadata(), min_support=bad
            )
        assert extractor._trial is kept
        assert result.mining.min_support == 50


class TestItemSupportsMemo:
    def test_read_only_and_computed_once(self, table2_small):
        transactions = TransactionSet.from_flows(table2_small.flows)
        items, counts = transactions.item_supports()
        assert not items.flags.writeable and not counts.flags.writeable
        again = transactions.item_supports()
        assert again[0] is items and again[1] is counts

    def test_row_range_views_compute_their_own(self, table2_small):
        transactions = TransactionSet.from_flows(table2_small.flows)
        whole = transactions.item_supports()
        view = transactions.row_range(10, 500)
        items, counts = view.item_supports()
        want_items, want_counts = np.unique(view.matrix, return_counts=True)
        assert items.tolist() == want_items.tolist()
        assert counts.tolist() == want_counts.tolist()
        assert counts.sum() == 490 * view.matrix.shape[1]
        assert transactions.item_supports() is whole


def _sweep_metadata():
    meta = Metadata()
    meta.add(Feature.DST_PORT, np.array([7000, 25], dtype=np.uint64))
    return meta


def _outcome(result):
    """What a trial answers: the frequent item-sets in mining order,
    the report and the prefilter's counts."""
    return (
        list(result.mining.all_frequent.items()),
        result.itemsets,
        result.prefilter.mode,
        result.prefilter.input_flows,
        result.prefilter.selected_flows,
    )


def _reused(tracer):
    return [
        span.attributes["reused"]
        for span in tracer.spans
        if span.name == "stage.mining"
    ]


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
