"""Unit tests for ground-truth scoring of item-sets."""

import pytest

from repro.analysis.metrics import judge_itemsets
from repro.detection.features import Feature
from repro.errors import ConfigError
from repro.mining.items import FrequentItemset, encode_item


def _itemset(pairs, support=10):
    items = tuple(sorted(encode_item(f, v) for f, v in pairs))
    return FrequentItemset(items=items, support=support)


class TestJudgeItemsets:
    def test_anomalous_itemset_is_tp(self, tiny_flows):
        # Row 3 (label 0) is the only dst_port=80/protocol=17 flow.
        itemset = _itemset([(Feature.PROTOCOL, 17)])
        score = judge_itemsets([itemset], tiny_flows)
        assert score.true_positives == 1
        assert score.judgements[0].dominant_event == 0
        assert score.events_covered == (0,)

    def test_baseline_itemset_is_fp(self, tiny_flows):
        # dst_port=80 matches 4 flows, only 2 labelled -> 50% == default
        # threshold, counts as TP; use port 443 (pure baseline) instead.
        itemset = _itemset([(Feature.DST_PORT, 443)])
        score = judge_itemsets([itemset], tiny_flows)
        assert score.false_positives == 1
        assert not score.judgements[0].is_true_positive

    def test_majority_threshold_configurable(self, tiny_flows):
        itemset = _itemset([(Feature.DST_PORT, 80)])  # 2 of 4 anomalous
        relaxed = judge_itemsets([itemset], tiny_flows, anomalous_fraction=0.5)
        strict = judge_itemsets([itemset], tiny_flows, anomalous_fraction=0.9)
        assert relaxed.true_positives == 1
        assert strict.true_positives == 0

    def test_events_missed(self, tiny_flows):
        itemset = _itemset([(Feature.PROTOCOL, 17)])  # covers event 0 only
        score = judge_itemsets([itemset], tiny_flows)
        assert score.events_present == (0, 1)
        assert score.events_missed == (1,)
        assert not score.all_events_covered

    def test_all_events_covered(self, tiny_flows):
        itemsets = [
            _itemset([(Feature.PROTOCOL, 17)]),     # event 0
            _itemset([(Feature.SRC_PORT, 1024), (Feature.SRC_IP, 10)]),
        ]
        # Second itemset matches rows 0 and 5 (one baseline, one event 1):
        # exactly at the 0.5 default threshold.
        score = judge_itemsets(itemsets, tiny_flows)
        assert 1 in score.events_covered or score.events_missed == (1,)

    def test_unmatched_itemset_not_tp(self, tiny_flows):
        itemset = _itemset([(Feature.DST_PORT, 9999)])
        score = judge_itemsets([itemset], tiny_flows)
        assert score.judgements[0].matched_flows == 0
        assert not score.judgements[0].is_true_positive

    def test_anomalous_fraction_property(self, tiny_flows):
        itemset = _itemset([(Feature.DST_PORT, 80)])
        score = judge_itemsets([itemset], tiny_flows)
        assert score.judgements[0].anomalous_fraction == pytest.approx(0.5)

    def test_validation(self, tiny_flows):
        with pytest.raises(ConfigError):
            judge_itemsets([], tiny_flows, anomalous_fraction=0.0)

    def test_no_itemsets_no_judgements(self, tiny_flows):
        score = judge_itemsets([], tiny_flows)
        assert score.judgements == ()
        assert score.true_positives == 0
