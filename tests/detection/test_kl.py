"""Unit tests for the KL distance machinery."""

import warnings

import numpy as np
import pytest

from repro.detection.kl import (
    divergence_rows,
    first_difference,
    kl_distance,
    kl_from_counts,
    kl_rows,
    smooth_rows,
)
from repro.errors import ConfigError


class TestKlDistance:
    def test_identical_distributions_zero(self):
        p = np.array([0.25, 0.25, 0.5])
        assert kl_distance(p, p) == pytest.approx(0.0)

    def test_positive_for_different_distributions(self):
        p = np.array([0.9, 0.1])
        q = np.array([0.5, 0.5])
        assert kl_distance(p, q) > 0

    def test_known_value(self):
        # D([1,0] || [0.5,0.5]) = log2(2) = 1 bit.
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        assert kl_distance(p, q) == pytest.approx(1.0)

    def test_asymmetry(self):
        p = np.array([0.8, 0.2])
        q = np.array([0.3, 0.7])
        assert kl_distance(p, q) != pytest.approx(kl_distance(q, p))

    def test_zero_p_bins_contribute_nothing(self):
        p = np.array([0.0, 1.0])
        q = np.array([0.5, 0.5])
        assert np.isfinite(kl_distance(p, q))

    def test_zero_q_with_positive_p_is_infinite(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        assert kl_distance(p, q) == np.inf

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            kl_distance(np.array([1.0]), np.array([0.5, 0.5]))

    def test_non_distribution_rejected(self):
        with pytest.raises(ConfigError):
            kl_distance(np.array([0.5, 0.4]), np.array([0.5, 0.5]))
        with pytest.raises(ConfigError):
            kl_distance(np.array([-0.5, 1.5]), np.array([0.5, 0.5]))

    def test_2d_rejected(self):
        with pytest.raises(ConfigError):
            kl_distance(np.ones((2, 2)) / 4, np.ones((2, 2)) / 4)


class TestKlFromCounts:
    def test_identical_counts_zero(self):
        counts = np.array([10.0, 20.0, 30.0])
        assert kl_from_counts(counts, counts) == pytest.approx(0.0)

    def test_smoothing_keeps_finite(self):
        current = np.array([100.0, 0.0])
        reference = np.array([0.0, 100.0])
        assert np.isfinite(kl_from_counts(current, reference, pseudocount=0.5))

    def test_zero_pseudocount_can_be_infinite(self):
        current = np.array([100.0, 0.0])
        reference = np.array([0.0, 100.0])
        assert kl_from_counts(current, reference, pseudocount=0.0) == np.inf

    def test_both_empty_histograms(self):
        zeros = np.zeros(4)
        assert kl_from_counts(zeros, zeros, pseudocount=0.0) == 0.0

    def test_empty_intervals_at_pseudocount_zero_do_not_warn(self):
        """Unsmoothed rows of empty intervals - current, reference or
        both - score 0 and the rest stay NaN-free, without a numpy
        warning, against a stack or one broadcast reference."""
        rng = np.random.default_rng(2)
        current = rng.poisson(3.0, (6, 64)).astype(np.float64)
        reference = rng.poisson(3.0, (6, 64)).astype(np.float64)
        current[[0, 3]] = 0.0
        reference[[1, 3]] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = kl_rows(current, reference, 0.0)
            broadcast = kl_rows(current, reference[1], 0.0)
        assert stacked[[0, 1, 3]].tolist() == [0.0, 0.0, 0.0]
        assert broadcast.tolist() == [0.0] * 6
        assert not np.isnan(stacked).any()

    def test_spike_grows_with_disruption(self):
        reference = np.full(16, 100.0)
        small = reference.copy(); small[0] += 200
        large = reference.copy(); large[0] += 2000
        assert kl_from_counts(large, reference) > kl_from_counts(small, reference)

    def test_volume_change_without_shape_change_is_silent(self):
        # The paper's key robustness property: doubling all counts does
        # not move the distribution, so the KL stays ~0.
        reference = np.array([100.0, 200.0, 300.0])
        assert kl_from_counts(2 * reference, reference) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_negative_pseudocount_rejected(self):
        with pytest.raises(ConfigError):
            kl_from_counts(np.ones(2), np.ones(2), pseudocount=-1.0)


class TestSmoothRows:
    """The first half of ``kl_rows``: a histogram's smoothed distribution."""

    def test_rows_sum_to_one(self, rng):
        counts = rng.integers(0, 20, (3, 50)).astype(np.float64)
        for pseudocount in (0.5, 1e-3):
            rows, _ = smooth_rows(counts, pseudocount)
            assert rows.sum(axis=-1) == pytest.approx([1.0, 1.0, 1.0])

    def test_empty_histogram_smooths_to_uniform(self):
        rows, totals = smooth_rows(np.zeros((1, 16)), 0.5)
        assert np.allclose(rows, 1.0 / 16)
        assert totals.tolist() == [[8.0]]

    def test_totals_are_smoothed_row_sums(self):
        counts = np.array([[1.0, 3.0], [0.0, 2.0]])
        _, totals = smooth_rows(counts, 0.5)
        assert totals.tolist() == [[5.0], [3.0]]
        _, one = smooth_rows(np.array([1.0, 3.0]), 0.5)
        assert one.tolist() == [5.0]

    def test_counts_not_written(self):
        counts = np.array([[2.0, 0.0, 6.0]])
        smooth_rows(counts, 0.5)
        assert counts.tolist() == [[2.0, 0.0, 6.0]]

    def test_negative_pseudocount_rejected(self):
        with pytest.raises(ConfigError, match="pseudocount"):
            smooth_rows(np.ones((1, 4)), -0.1)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            smooth_rows(np.array([[1.0, -2.0]]), 0.5)

    def test_nan_count_rejected(self):
        with pytest.raises(ConfigError, match="finite total"):
            smooth_rows(np.array([[1.0, np.nan]]), 0.5)

    def test_empty_row_at_pseudocount_zero_has_zero_total(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, totals = smooth_rows(np.zeros((1, 4)), 0.0)
        assert totals.tolist() == [[0.0]]
        assert np.isnan(rows).all()


class TestDivergenceRows:
    """The second half of ``kl_rows``, over smoothed histograms."""

    def test_composition_is_kl_rows(self, rng):
        current = rng.poisson(4.0, (5, 32)).astype(np.float64)
        reference = rng.poisson(4.0, (5, 32)).astype(np.float64)
        halves = divergence_rows(
            *smooth_rows(current, 0.5), *smooth_rows(reference, 0.5)
        )
        assert halves.tolist() == kl_rows(current, reference, 0.5).tolist()

    def test_identical_rows_score_zero(self):
        rows = smooth_rows(np.array([[3.0, 1.0, 0.0]]), 0.5)
        assert divergence_rows(*rows, *rows).tolist() == [0.0]

    def test_one_reference_row_scores_every_row(self, rng):
        current = rng.poisson(4.0, (4, 16)).astype(np.float64)
        reference = rng.poisson(4.0, 16).astype(np.float64)
        scores = divergence_rows(
            *smooth_rows(current, 0.5), *smooth_rows(reference, 0.5)
        )
        for row, score in zip(current, scores, strict=True):
            assert score == kl_from_counts(row, reference, 0.5)

    def test_inputs_not_written(self):
        current = smooth_rows(np.array([[0.0, 4.0]]), 0.0)
        reference = smooth_rows(np.array([[2.0, 2.0]]), 0.0)
        kept = [array.copy() for array in (*current, *reference)]
        divergence_rows(*current, *reference)
        for array, copy in zip((*current, *reference), kept, strict=True):
            assert np.array_equal(array, copy)

    def test_empty_current_bin_contributes_nothing(self):
        # D([0, 1] || [1/2, 1/2]) = log2(2) = 1 bit.
        scores = divergence_rows(
            *smooth_rows(np.array([[0.0, 4.0]]), 0.0),
            *smooth_rows(np.array([[2.0, 2.0]]), 0.0),
        )
        assert scores.tolist() == [1.0]


class TestFirstDifference:
    def test_basic(self):
        series = np.array([1.0, 3.0, 2.0])
        assert list(first_difference(series)) == [0.0, 2.0, -1.0]

    def test_empty(self):
        assert len(first_difference(np.array([]))) == 0

    def test_single_element(self):
        assert list(first_difference(np.array([5.0]))) == [0.0]

    def test_2d_rejected(self):
        with pytest.raises(ConfigError):
            first_difference(np.ones((2, 2)))

    def test_reconstruction(self, rng):
        series = rng.random(50)
        diffs = first_difference(series)
        assert np.allclose(np.cumsum(diffs) + series[0], series)
