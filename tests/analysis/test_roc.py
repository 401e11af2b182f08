"""Unit tests for ROC analysis."""

import numpy as np
import pytest

from repro.analysis.roc import auc, operating_point, roc_curve
from repro.detection.detector import DetectorConfig
from repro.detection.manager import DetectorBank
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def run_and_truth(ddos_trace):
    config = DetectorConfig(
        clones=3, bins=256, vote_threshold=3, training_intervals=16
    )
    bank = DetectorBank(config, seed=1)
    run = bank.run(ddos_trace.flows, ddos_trace.interval_seconds, origin=0.0)
    return run, ddos_trace.anomalous_intervals()


class TestRocCurve:
    def test_tpr_and_fpr_in_range(self, run_and_truth):
        run, truth = run_and_truth
        points = roc_curve(run, truth, multipliers=np.linspace(0.5, 10, 12))
        for p in points:
            assert 0.0 <= p.fpr <= 1.0
            assert 0.0 <= p.tpr <= 1.0

    def test_sensitive_threshold_detects_event(self, run_and_truth):
        run, truth = run_and_truth
        points = roc_curve(run, truth, multipliers=[1.0])
        assert points[0].tpr == 1.0  # the single DDoS interval alarms

    def test_huge_threshold_detects_nothing(self, run_and_truth):
        run, truth = run_and_truth
        points = roc_curve(run, truth, multipliers=[1e9])
        assert points[0].tpr == 0.0
        assert points[0].fpr == 0.0

    def test_fpr_monotone_in_sensitivity(self, run_and_truth):
        run, truth = run_and_truth
        points = roc_curve(run, truth, multipliers=[0.5, 2.0, 8.0])
        fprs = [p.fpr for p in points]
        assert fprs == sorted(fprs, reverse=True)

    def test_counts_exclude_training_prefix(self, run_and_truth):
        run, truth = run_and_truth
        points = roc_curve(run, truth, multipliers=[0.01])
        scored_intervals = run.n_intervals - run.config.training_intervals
        assert points[0].false_positives <= scored_intervals

    def test_clone_curves_differ_slightly(self, run_and_truth):
        run, truth = run_and_truth
        multipliers = np.linspace(0.5, 8, 10)
        curves = [
            tuple((p.fpr, p.tpr) for p in roc_curve(run, truth, multipliers, clone=c))
            for c in range(3)
        ]
        # Clones share the anomaly but differ in hash-collision noise.
        assert len(set(curves)) >= 2

    def test_empty_run_rejected(self, run_and_truth):
        from repro.detection.manager import DetectionRun

        empty = DetectionRun(config=DetectorConfig(training_intervals=3),
                             features=())
        with pytest.raises(ConfigError):
            roc_curve(empty, set(), multipliers=[1.0])


class TestAucAndOperatingPoint:
    def test_auc_of_good_detector_high(self, run_and_truth):
        run, truth = run_and_truth
        points = roc_curve(run, truth, multipliers=np.linspace(0.25, 12, 24))
        assert auc(points) > 0.9

    def test_auc_bounds(self, run_and_truth):
        run, truth = run_and_truth
        points = roc_curve(run, truth, multipliers=np.linspace(0.25, 12, 24))
        assert 0.0 <= auc(points) <= 1.0

    def test_auc_empty_rejected(self):
        with pytest.raises(ConfigError):
            auc([])

    def test_operating_point_respects_fpr_budget(self, run_and_truth):
        run, truth = run_and_truth
        points = roc_curve(run, truth, multipliers=np.linspace(0.25, 12, 24))
        best = operating_point(points, max_fpr=0.05)
        assert best.fpr <= 0.05

    def test_operating_point_impossible_budget(self, run_and_truth):
        run, truth = run_and_truth
        points = roc_curve(run, truth, multipliers=[0.01])
        if points[0].fpr > 0:
            with pytest.raises(ConfigError):
                operating_point(points, max_fpr=points[0].fpr / 2)
