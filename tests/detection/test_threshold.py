"""Unit tests for MAD-based alarm thresholds."""

import numpy as np
import pytest

from repro.detection.threshold import (
    MAD_TO_SIGMA,
    AlarmThreshold,
    estimate_sigmas,
    mad_sigma,
)
from repro.errors import ConfigError
from tests.detection.reference import reference_threshold


class TestMadSigma:
    def test_matches_std_for_normal_samples(self, rng):
        samples = rng.normal(0.0, 2.0, size=200_000)
        assert mad_sigma(samples) == pytest.approx(2.0, rel=0.02)

    def test_robust_to_outliers(self, rng):
        samples = rng.normal(0.0, 1.0, size=10_000)
        contaminated = np.concatenate([samples, np.full(100, 1e6)])
        # Plain std explodes; MAD barely moves.
        assert np.std(contaminated) > 1e4
        assert mad_sigma(contaminated) == pytest.approx(1.0, rel=0.1)

    def test_known_value(self):
        samples = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        # median 3, |x - 3| = [2,1,0,1,2], MAD = 1.
        assert mad_sigma(samples) == pytest.approx(MAD_TO_SIGMA)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            mad_sigma(np.array([]))


class TestAlarmThreshold:
    def test_one_sided(self):
        threshold = AlarmThreshold(sigma=1.0, multiplier=3.0)
        # Negative spikes are ignored; the inequality is strict.
        assert threshold.alarms([3.5, -3.5, 3.0]).tolist() == [
            True, False, False,
        ]

    def test_value(self):
        assert AlarmThreshold(sigma=2.0, multiplier=4.0).value == 8.0

    def test_vectorized_alarms(self):
        threshold = AlarmThreshold(sigma=1.0, multiplier=2.0)
        diffs = np.array([0.0, 3.0, -3.0, 2.1])
        assert list(threshold.alarms(diffs)) == [False, True, False, True]

    def test_with_multiplier(self):
        base = AlarmThreshold(sigma=1.5, multiplier=3.0)
        derived = base.with_multiplier(5.0)
        assert derived.sigma == 1.5
        assert derived.value == 7.5

    def test_validation(self):
        with pytest.raises(ConfigError):
            AlarmThreshold(sigma=-1.0)
        with pytest.raises(ConfigError):
            AlarmThreshold(sigma=1.0, multiplier=0.0)


    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sigma=float("nan")),
            dict(sigma=float("inf")),
            dict(sigma=1.0, multiplier=float("nan")),
            dict(sigma=1.0, multiplier=float("inf")),
        ],
    )
    def test_non_finite_refused(self, kwargs):
        """A NaN alarm level never alarms: ``diff > nan`` is False."""
        with pytest.raises(ConfigError, match="finite"):
            AlarmThreshold(**kwargs)


class TestEstimateSigmas:
    def test_from_training_diffs(self, rng):
        diffs = rng.normal(0.0, 0.5, size=(2, 5000))
        assert estimate_sigmas(diffs) == pytest.approx([0.5, 0.5], rel=0.1)

    def test_degenerate_training_fallback(self):
        (sigma,) = estimate_sigmas(np.zeros((1, 100)))
        assert sigma > 0  # never a zero threshold

    def test_mad_zero_but_spread_nonzero(self):
        # Majority identical values: MAD = 0 but std > 0.
        samples = np.concatenate([np.zeros(90), np.ones(10)])
        (sigma,) = estimate_sigmas(samples[np.newaxis])
        assert sigma == pytest.approx(np.std(samples))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            estimate_sigmas(np.zeros((3, 0)))

    def test_rows_equal_one_series_at_a_time(self, rng):
        """Each row's sigma is bit for bit the one-series calibration
        of the reference detector, whatever else is in the stack:
        normal, rounded (MAD 0, spread > 0) and constant rows."""
        rows = np.concatenate(
            [
                rng.normal(0.0, 1e-3, (4, 31)),
                np.round(rng.normal(0.0, 0.3, (4, 31))),
                np.zeros((2, 31)),
                np.full((2, 31), 0.25),
            ]
        )
        rows[5, :20] = 0.0
        sigmas = estimate_sigmas(rows).tolist()
        assert sigmas == [reference_threshold(row, 4.0).sigma for row in rows]
        assert mad_sigma(rows).tolist() == [mad_sigma(row) for row in rows]
