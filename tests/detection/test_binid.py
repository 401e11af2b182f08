"""Unit tests for iterative anomalous-bin identification (Fig. 5)."""

import pickle

import numpy as np
import pytest

from repro.detection.binid import BinIdentification, identify_anomalous_bins
from repro.detection.kl import kl_from_counts
from repro.detection.threshold import AlarmThreshold
from repro.errors import DetectionError


def _threshold(value=0.01):
    return AlarmThreshold(sigma=value, multiplier=1.0)


class TestBinIdentification:
    def test_finds_single_disrupted_bin(self):
        reference = np.full(64, 100.0)
        current = reference.copy()
        current[17] += 5000.0
        result = identify_anomalous_bins(
            current, reference, _threshold(), previous_kl=0.0
        )
        assert result.converged
        assert 17 in result.bins
        assert result.bins[0] == 17  # most disruptive first

    def test_finds_multiple_bins_in_disruption_order(self):
        reference = np.full(64, 100.0)
        current = reference.copy()
        current[5] += 9000.0
        current[30] += 4000.0
        result = identify_anomalous_bins(
            current, reference, _threshold(), previous_kl=0.0
        )
        assert result.converged
        assert result.bins[0] == 5
        assert 30 in result.bins

    def test_kl_trace_monotone_and_matches_fig5_shape(self):
        reference = np.full(128, 50.0)
        current = reference.copy()
        current[3] += 8000.0
        current[60] += 500.0
        result = identify_anomalous_bins(
            current, reference, _threshold(), previous_kl=0.0
        )
        trace = np.array(result.kl_trace)
        assert len(trace) == result.rounds + 1
        assert (np.diff(trace) <= 1e-12).all()  # non-increasing
        # "Already after the first round, the KL distance decreases
        # significantly": the first drop dominates.
        drops = -np.diff(trace)
        assert drops[0] == drops.max()

    def test_no_alarm_means_no_bins(self):
        reference = np.full(32, 100.0)
        result = identify_anomalous_bins(
            reference.copy(), reference, _threshold(1.0), previous_kl=0.0
        )
        assert result.converged
        assert result.bins == ()
        assert len(result.kl_trace) == 1

    def test_cleaned_histogram_no_longer_alerts(self):
        reference = np.full(64, 100.0)
        current = reference.copy()
        current[2] += 3000.0
        current[9] += 2500.0
        threshold = _threshold(0.005)
        result = identify_anomalous_bins(
            current, reference, threshold, previous_kl=0.0
        )
        cleaned = current.copy()
        for bin_idx in result.bins:
            cleaned[bin_idx] = reference[bin_idx]
        assert kl_from_counts(cleaned, reference) <= threshold.value

    def test_previous_kl_offsets_the_target(self):
        reference = np.full(64, 100.0)
        current = reference.copy()
        current[1] += 1000.0
        initial_kl = kl_from_counts(current, reference)
        # With previous_kl already at the spike level, no cleaning needed.
        result = identify_anomalous_bins(
            current, reference, _threshold(), previous_kl=initial_kl
        )
        assert result.bins == ()

    def test_max_rounds_cap(self):
        reference = np.full(16, 10.0)
        current = reference + 1000.0  # every bin disrupted
        result = identify_anomalous_bins(
            current,
            reference,
            AlarmThreshold(sigma=1e-12, multiplier=1.0),
            previous_kl=0.0,
            max_rounds=3,
        )
        assert result.rounds <= 3

    def test_decreasing_counts_also_identified(self):
        # Anomalies can empty a bin (e.g. outage); |cur - ref| handles it.
        reference = np.full(32, 1000.0)
        current = reference.copy()
        current[8] = 0.0
        result = identify_anomalous_bins(
            current, reference, _threshold(0.001), previous_kl=0.0
        )
        assert 8 in result.bins

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DetectionError):
            identify_anomalous_bins(
                np.ones(4), np.ones(5), _threshold(), previous_kl=0.0
            )

    def test_result_is_a_frozen_value(self):
        """Equality, hashing and pickling read the trace, which is
        scored when first needed; attributes cannot be rebound."""
        reference = np.full(64, 100.0)
        current = reference.copy()
        current[17] += 5000.0
        first, second = (
            identify_anomalous_bins(
                current, reference, _threshold(), previous_kl=0.0
            )
            for _ in range(2)
        )
        assert first == second and hash(first) == hash(second)
        assert pickle.loads(pickle.dumps(first)) == first
        assert first != BinIdentification(first.bins, (), first.converged)
        with pytest.raises(AttributeError, match="immutable"):
            first.bins = ()
