"""Unit tests for the detector bank."""

import json

import numpy as np
import pytest

from repro.api import resolve_config
from repro.core.session import ExtractionSession
from repro.detection.detector import DetectorConfig
from repro.detection.features import DETECTOR_FEATURES, Feature
from repro.detection.manager import DetectorBank
from repro.errors import ConfigError, ExtractionError
from repro.flows.stream import iter_intervals


@pytest.fixture(scope="module")
def run(ddos_trace):
    config = DetectorConfig(
        clones=3, bins=256, vote_threshold=3, training_intervals=16
    )
    bank = DetectorBank(config, seed=1)
    return bank.run(ddos_trace.flows, ddos_trace.interval_seconds, origin=0.0)


class TestDetectorBank:
    def test_monitors_the_five_paper_features(self):
        bank = DetectorBank(DetectorConfig(training_intervals=4))
        assert set(bank.detectors) == set(DETECTOR_FEATURES)

    def test_needs_features(self):
        with pytest.raises(ConfigError):
            DetectorBank(features=())

    def test_run_covers_all_intervals(self, run, ddos_trace):
        assert run.n_intervals == ddos_trace.n_intervals

    def test_ddos_interval_alarmed(self, run, ddos_trace):
        assert 24 in run.alarm_intervals()

    def test_ddos_report_features(self, run):
        report = run.report(24)
        assert report.alarm
        # A DDoS disturbs at least dstIP; typically srcIP too.
        assert Feature.DST_IP in report.alarmed_features

    def test_metadata_contains_victim(self, run, ddos_trace, small_profile):
        victim = small_profile.internal_base + 5
        meta = run.report(24).metadata()
        assert victim in meta.get(Feature.DST_IP).tolist()

    def test_quiet_interval_produces_no_metadata(self, run):
        report = run.report(20)
        assert not report.alarm
        assert report.metadata().is_empty()

    def test_kl_series_accessible(self, run):
        series = run.kl_series(Feature.DST_IP, clone=0)
        assert len(series) == run.n_intervals
        # The DDoS spike must dominate its neighbourhood.
        assert series[24] > 3 * series[20]

    def test_sigma_positive(self, run):
        assert run.sigma(Feature.DST_IP, clone=0) > 0

    def test_alarms_at_multiplier_monotone(self, run):
        sensitive = run.interval_alarm_mask(multiplier=1.0).sum()
        strict = run.interval_alarm_mask(multiplier=8.0).sum()
        assert sensitive >= strict

    def test_alarms_never_in_training_prefix(self, run):
        mask = run.interval_alarm_mask(multiplier=0.5)
        assert not mask[: run.config.training_intervals].any()

    def test_flow_counts_recorded(self, run):
        assert run.report(24).flow_count > 0

    def test_series_read_off_the_reports(self, run):
        for feature in run.features:
            for clone in range(run.config.clones):
                assert run.kl_series(feature, clone).tolist() == [
                    r.observations[feature].clones[clone].kl
                    for r in run.reports
                ]

    def test_alarms_at_configured_multiplier_are_the_live_alarms(self, run):
        """The ROC primitive, evaluated at the detector's own
        multiplier, reproduces every clone's live alarm decision."""
        assert any(r.alarm for r in run.reports)
        for feature in run.features:
            for clone in range(run.config.clones):
                mask = run.alarms_at_multiplier(
                    feature, clone, run.config.multiplier
                )
                assert mask.tolist() == [
                    r.observations[feature].clones[clone].alarm
                    for r in run.reports
                ]

    def test_unknown_interval_refused_naming_the_range(self, run):
        with pytest.raises(ExtractionError, match="holds intervals 0-29"):
            run.report(30)


class TestDetectionRunAfterRestore:
    """A stream session restored after 15 closed intervals and fed 9
    more holds the reports of intervals 15-23 only: the run is indexed
    by interval, and every series and mask covers those 9 reports."""

    @pytest.fixture(scope="class")
    def resumed(self, ddos_trace):
        config = resolve_config(
            None,
            min_support=10_000,
            detector=DetectorConfig(
                clones=3, bins=256, vote_threshold=3, training_intervals=8
            ),
        )
        views = list(
            iter_intervals(
                ddos_trace.flows, ddos_trace.interval_seconds, origin=0.0
            )
        )

        def session():
            return ExtractionSession(
                config, interval_seconds=ddos_trace.interval_seconds
            )

        first = session()
        for view in views[:16]:
            first.feed(view.flows)
        state = json.loads(json.dumps(first.to_state()))
        whole = first.result().detection
        first.close()
        second = session()
        second.from_state(state)
        for view in views[16:25]:
            second.feed(view.flows)
        run = second.result().detection
        second.close()
        return whole, run

    def test_reports_cover_the_resumed_intervals(self, resumed):
        _, run = resumed
        assert [r.interval for r in run.reports] == list(range(15, 24))

    def test_report_is_looked_up_by_interval(self, resumed):
        _, run = resumed
        assert run.report(16).interval == 16
        with pytest.raises(ExtractionError, match="holds intervals 15-23"):
            run.report(3)

    def test_masks_match_the_reports(self, resumed):
        _, run = resumed
        assert run.interval_alarm_mask(3.0).shape == (9,)
        for feature in run.features:
            assert run.kl_series(feature).shape == (9,)

    def test_training_mask_reads_interval_indices(self, resumed):
        """Every resumed interval is past training: none is masked."""
        _, run = resumed
        mask = run.alarms_at_multiplier(Feature.DST_IP, 0, 1e-9)
        diffs = run.diff_series(Feature.DST_IP, 0)
        assert mask.tolist() == (diffs > 0).tolist()

    def test_pre_restore_run_still_masks_training(self, resumed):
        whole, _ = resumed
        mask = whole.interval_alarm_mask(1e-9)
        assert not mask[: whole.config.training_intervals].any()
        assert np.array_equal(
            [r.interval for r in whole.reports], np.arange(15)
        )
