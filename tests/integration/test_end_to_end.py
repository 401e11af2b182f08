"""Integration tests: the full pipeline on multi-event traces."""

import numpy as np
import pytest

import repro.api as api
from repro.analysis.metrics import judge_itemsets
from repro.core.config import ExtractionConfig
from repro.detection.detector import DetectorConfig
from repro.detection.features import Feature
from repro.flows.stream import interval_of
from repro.mining import apriori, eclat, fpgrowth
from repro.mining.transactions import TransactionSet


def _flow_recall(itemsets, flows):
    """Fraction of the interval's event flows matched by at least one
    extracted item-set (how much of the anomaly the summary covers)."""
    transactions = TransactionSet.from_flows(flows)
    matched = np.zeros(len(flows), dtype=bool)
    for itemset in itemsets:
        matched |= transactions.contains_mask(itemset.items)
    anomalous = flows.anomalous_mask
    return (matched & anomalous).sum() / anomalous.sum()


def _config(min_support=300):
    return ExtractionConfig(
        detector=DetectorConfig(
            clones=3, bins=256, vote_threshold=3, training_intervals=16
        ),
        min_support=min_support,
    )


class TestScanExtraction:
    @pytest.fixture(scope="class")
    def result(self, scan_trace):
        return api.extract(
            scan_trace.flows, _config(), interval_seconds=900.0, seed=2
        )

    def test_scan_interval_flagged(self, result):
        assert 25 in result.flagged_intervals

    def test_scanner_identified(self, result):
        extraction = next(
            e for e in result.extractions if e.interval == 25
        )
        scanner_itemsets = [
            s for s in extraction.itemsets
            if s.as_dict().get(Feature.SRC_IP) == 0x0C001234
        ]
        assert scanner_itemsets
        # The scan signature includes dstPort 445 and the fixed size.
        top = max(scanner_itemsets, key=lambda s: s.support)
        decoded = top.as_dict()
        assert decoded.get(Feature.DST_PORT) == 445

    def test_judgement_counts(self, result, scan_trace):
        extraction = next(
            e for e in result.extractions if e.interval == 25
        )
        interval = interval_of(scan_trace.flows, 25, 900.0, origin=0.0)
        score = judge_itemsets(extraction.itemsets, interval.flows)
        assert score.true_positives >= 1
        assert score.all_events_covered
        # The paper reports 2-8.5 FP item-sets on average; at this scale
        # a handful at most.
        assert score.false_positives <= 5

    def test_flow_recall_high(self, result, scan_trace):
        extraction = next(
            e for e in result.extractions if e.interval == 25
        )
        interval = interval_of(scan_trace.flows, 25, 900.0, origin=0.0)
        assert _flow_recall(extraction.itemsets, interval.flows) > 0.9


class TestMinerInterchangeability:
    def test_pipeline_identical_itemsets_for_all_miners(self, ddos_trace):
        outputs = {}
        for miner in ("apriori", "fpgrowth", "eclat"):
            config = ExtractionConfig(
                detector=DetectorConfig(
                    clones=3, bins=256, vote_threshold=3,
                    training_intervals=16,
                ),
                min_support=300,
                miner=miner,
            )
            result = api.extract(
                ddos_trace.flows, config, interval_seconds=900.0, seed=1
            )
            outputs[miner] = {
                (e.interval, s.items, s.support)
                for e in result.extractions
                for s in e.itemsets
            }
        assert outputs["apriori"] == outputs["fpgrowth"] == outputs["eclat"]


class TestMultiEventInterval:
    def test_two_events_in_one_interval_both_extracted(self, small_profile):
        from repro.anomalies import DDoSInjector, EventSchedule, ScanInjector
        from repro.traffic import TraceGenerator

        generator = TraceGenerator(small_profile, seed=8)
        schedule = EventSchedule()
        victim = small_profile.internal_base + 9
        schedule.add_at_interval(
            DDoSInjector(victim_ip=victim, flows=1100, sources=200),
            20, 900.0, duration=880.0,
        )
        schedule.add_at_interval(
            ScanInjector(
                scanner_ips=[0x0C00AAAA], target_port=5900, flows=900,
                target_space_start=small_profile.internal_base,
                target_space_size=small_profile.internal_hosts,
            ),
            20, 900.0, duration=880.0,
        )
        trace = generator.generate(24, schedule=schedule)
        result = api.extract(
            trace.flows, _config(min_support=250), interval_seconds=900.0, seed=3
        )
        extraction = next(
            (e for e in result.extractions if e.interval == 20), None
        )
        assert extraction is not None
        interval = interval_of(trace.flows, 20, 900.0, origin=0.0)
        score = judge_itemsets(extraction.itemsets, interval.flows)
        # Both concurrent events appear in the item-set summary.
        assert set(score.events_covered) == {0, 1}


class TestStabilityOverBaseline:
    def test_no_extraction_storm_on_clean_traffic(self, small_profile):
        from repro.traffic import TraceGenerator

        trace = TraceGenerator(small_profile, seed=21).generate(22)
        result = api.extract(
            trace.flows, _config(), interval_seconds=900.0, seed=4
        )
        assert len(result.extractions) <= 1


class TestTransactionalEquivalence:
    def test_miners_on_extracted_flows(self, ddos_trace):
        interval = interval_of(ddos_trace.flows, 24, 900.0, origin=0.0)
        transactions = TransactionSet.from_flows(interval.flows)
        results = [
            miner(transactions, 200)
            for miner in (apriori, fpgrowth, eclat)
        ]
        assert results[0].all_frequent == results[1].all_frequent
        assert results[1].all_frequent == results[2].all_frequent
