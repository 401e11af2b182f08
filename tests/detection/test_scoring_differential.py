"""Differential tests: stacked scoring == the one-at-a-time reference.

``kl_rows`` and the block-evaluated ``identify_anomalous_bins`` promise
results *bit for bit* equal to the 1-D KL and the one-bin-per-round
loop they replaced (``tests/detection/reference.py``); the checkpointed
``kl_series`` and every alarm decision hang on that.  These tests hold
them to it with ``==`` on floats, never ``approx`` - except where the
kernel's docstring says the last bits may differ (``pseudocount == 0``
with empty bins).
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection import binid
from repro.detection.binid import identify_anomalous_bins
from repro.detection.detector import (
    MIN_PSEUDOCOUNT,
    DetectorConfig,
    HistogramDetector,
    clone_seed,
)
from repro.detection.features import Feature
from repro.detection.kl import kl_from_counts, kl_rows
from repro.detection.threshold import AlarmThreshold
from repro.errors import ConfigError
from repro.sketch.cloning import CloneSet
from tests.detection.reference import reference_identify_bins, reference_kl

BIN_COUNTS = (2, 7, 64, 1000, 1024)


def _counts(rng, shape, kind):
    """Histogram-like counts: integer-valued (what the sketch emits),
    sparse (mostly empty bins) or arbitrary non-negative floats."""
    if kind == "integer":
        return rng.poisson(20.0, shape).astype(np.float64)
    if kind == "sparse":
        return rng.poisson(0.3, shape).astype(np.float64)
    return rng.random(shape) * 10.0 ** rng.integers(-3, 7)


stacks = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),  # rng seed
    st.integers(min_value=1, max_value=20),  # rows
    st.sampled_from(BIN_COUNTS),
    st.sampled_from(("integer", "sparse", "float")),
)


class TestKernelEqualsReference:
    @settings(max_examples=150, deadline=None)
    @given(
        stack=stacks,
        pseudocount=st.floats(min_value=1e-12, max_value=1e6),
        broadcast=st.booleans(),
    )
    def test_rows_bit_identical_with_smoothing(
        self, stack, pseudocount, broadcast
    ):
        seed, rows, bins, kind = stack
        rng = np.random.default_rng(seed)
        current = _counts(rng, (rows, bins), kind)
        reference = _counts(rng, bins if broadcast else (rows, bins), kind)
        distances = kl_rows(current, reference, pseudocount)
        assert distances.shape == (rows,)
        for i in range(rows):
            row_reference = reference if broadcast else reference[i]
            expected = reference_kl(current[i], row_reference, pseudocount)
            assert distances[i] == expected
            # The one-row call is the same arithmetic, so the same bits.
            assert (
                kl_from_counts(current[i], row_reference, pseudocount)
                == expected
            )

    @settings(max_examples=50, deadline=None)
    @given(stack=stacks)
    def test_input_layout_does_not_move_a_bit(self, stack):
        seed, rows, bins, kind = stack
        rng = np.random.default_rng(seed)
        current = _counts(rng, (rows, bins), kind)
        reference = _counts(rng, (rows, bins), kind)
        expected = kl_rows(current, reference)
        wide = np.zeros((rows, 2 * bins))
        wide[:, ::2] = current
        for laid_out in (
            np.asfortranarray(current),
            wide[:, ::2],
            current.astype(np.int64) if kind != "float" else current,
        ):
            assert (kl_rows(laid_out, reference) == expected).all()

    def test_caller_arrays_are_not_written(self):
        current = np.full((3, 8), 5.0)
        reference = np.arange(8.0)
        kl_rows(current, reference, 0.0)
        assert (current == 5.0).all()
        assert (reference == np.arange(8.0)).all()

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rows=st.integers(min_value=1, max_value=20),
        bins=st.sampled_from(BIN_COUNTS),
    )
    def test_zero_pseudocount_with_empty_bins(self, seed, rows, bins):
        """Empty bins are summed in place as 0 rather than compressed
        away, so the pairwise sum groups differently: 1e-12, not ==."""
        rng = np.random.default_rng(seed)
        current = _counts(rng, (rows, bins), "sparse")
        reference = _counts(rng, (rows, bins), "sparse")
        # Whole-histogram edge cases ride in the same stack.
        current[rng.random(rows) < 0.2] = 0.0
        reference[rng.random(rows) < 0.2] = 0.0
        distances = kl_rows(current, reference, 0.0)
        assert not np.isnan(distances).any()
        for i in range(rows):
            expected = reference_kl(current[i], reference[i], 0.0)
            if np.isinf(expected) or not (
                current[i].any() and reference[i].any()
            ):
                assert distances[i] == expected
            else:
                assert abs(distances[i] - expected) <= 1e-12

    def test_zero_pseudocount_without_empty_bins_is_bit_identical(self):
        rng = np.random.default_rng(5)
        current = rng.poisson(20.0, (6, 64)) + 1.0
        reference = rng.poisson(20.0, (6, 64)) + 1.0
        distances = kl_rows(current, reference, 0.0)
        for i in range(6):
            assert distances[i] == reference_kl(current[i], reference[i], 0.0)

    def test_shapes_refused(self):
        with pytest.raises(ConfigError, match="stack"):
            kl_rows(np.ones(4), np.ones(4))
        with pytest.raises(ConfigError, match="shape mismatch"):
            kl_rows(np.ones((2, 4)), np.ones((3, 4)))
        with pytest.raises(ConfigError, match="shape mismatch"):
            kl_rows(np.ones((2, 4)), np.ones(5))
        with pytest.raises(ConfigError, match="shape mismatch"):
            kl_from_counts(np.ones(4), np.ones((1, 4)))
        with pytest.raises(ConfigError, match="one-dimensional"):
            kl_from_counts(np.ones((2, 4)), np.ones((2, 4)))


def _disrupted(rng, bins, differing, steps=(100.0, 200.0, 300.0), scale=1.0):
    """A reference histogram and a current one differing in exactly
    ``differing`` bins, by amounts drawn from a handful of values - so
    ``|cur - ref|`` is full of ties and the order rests on the index.
    Counts stay below 1,200 times ``scale``."""
    reference = rng.poisson(400.0, bins).astype(np.float64) + 400.0
    current = reference.copy()
    where = rng.choice(bins, size=differing, replace=False)
    current[where] += rng.choice(steps, size=differing) * rng.choice(
        (-1.0, 1.0), size=differing
    )
    return current * scale, reference * scale


def _assert_equals_reference(
    current, reference, value, previous_kl, pseudocount=0.5, max_rounds=None
):
    result = identify_anomalous_bins(
        current,
        reference,
        AlarmThreshold(sigma=value, multiplier=1.0),
        previous_kl=previous_kl,
        pseudocount=pseudocount,
        max_rounds=max_rounds,
    )
    bins, trace, converged = reference_identify_bins(
        current, reference, value, previous_kl, pseudocount, max_rounds
    )
    assert result.bins == bins
    assert result.kl_trace == trace  # float ==, every round
    assert result.converged is converged
    assert all(type(b) is int for b in result.bins)
    assert all(type(kl) is float for kl in result.kl_trace)
    return result


@pytest.fixture()
def block_sizes(monkeypatch):
    """Rows of every block the identification hands the kernel."""
    sizes = []
    real = binid.divergence_rows
    monkeypatch.setattr(
        binid,
        "divergence_rows",
        lambda block, *rest: sizes.append(len(block)) or real(block, *rest),
    )
    return sizes


class TestBinIdentificationEqualsReference:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        bins=st.sampled_from((7, 64, 256, 1024, 4096)),
        fraction=st.floats(min_value=0.0, max_value=1.0),
        stop_at=st.floats(min_value=0.0, max_value=1.0),
        max_rounds=st.sampled_from((0, 1, 3, None)),
        pseudocount=st.sampled_from((MIN_PSEUDOCOUNT, 1e-3, 0.5, 7.0)),
        scale=st.integers(min_value=0, max_value=29).map(lambda k: 2.0**k),
    )
    def test_any_stopping_round(
        self, seed, bins, fraction, stop_at, max_rounds, pseudocount, scale
    ):
        """The threshold is lifted from the full cleaning trace itself,
        so the scan stops mid-run at a round where ``excess ==
        threshold`` exactly - the ``>`` / ``<=`` boundary, which the
        screen must leave to the exact kernel.  Counts reach 2^40."""
        rng = np.random.default_rng(seed)
        current, reference = _disrupted(
            rng, bins, int(fraction * bins), scale=scale
        )
        _, full_trace, _ = reference_identify_bins(
            current, reference, 0.0, 0.0, pseudocount
        )
        value = max(full_trace[int(stop_at * (len(full_trace) - 1))], 0.0)
        _assert_equals_reference(
            current,
            reference,
            value,
            0.0,
            pseudocount=pseudocount,
            max_rounds=max_rounds,
        )

    # Blocks cover rounds 0-3, 4-19, 20-83, then 128 at a time (the
    # element budget at 1024 bins): stop just before, on and just after
    # each boundary, and two capped blocks further on.
    @pytest.mark.parametrize(
        "differing",
        [0, 1, 3, 4, 5, 19, 20, 21, 83, 84, 85, 211, 212, 213, 340, 500],
    )
    def test_round_counts_across_block_boundaries(self, differing):
        rng = np.random.default_rng(differing)
        current, reference = _disrupted(rng, 1024, differing)
        # With no tolerance the alarm stands until the histograms match.
        result = _assert_equals_reference(current, reference, 0.0, 0.0)
        assert result.rounds == differing
        assert result.converged

    @pytest.mark.parametrize("differing", [0, 2, 30, 200])
    @pytest.mark.parametrize("max_rounds", [0, 1, 3, None])
    def test_alarm_that_stands_with_nothing_left_to_reset(
        self, differing, max_rounds
    ):
        rng = np.random.default_rng(differing)
        current, reference = _disrupted(rng, 1024, differing)
        # previous_kl below zero: even identical histograms "alarm".
        result = _assert_equals_reference(
            current, reference, 0.0, -1.0, max_rounds=max_rounds
        )
        assert not result.converged
        spent = differing if max_rounds is None else min(differing, max_rounds)
        assert result.rounds == spent

    def test_block_cap_follows_the_element_budget(
        self, monkeypatch, block_sizes
    ):
        """A small budget forces one-row blocks (the cap's floor) and
        must not change a bit of the answer."""
        rng = np.random.default_rng(9)
        current, reference = _disrupted(rng, 64, 40)
        threshold = AlarmThreshold(1e-9, 1.0)
        expected = identify_anomalous_bins(
            current, reference, threshold, previous_kl=0.0
        )
        expected.kl_trace  # scored under the default budget
        monkeypatch.setattr(binid, "_BLOCK_ELEMENTS", 100)
        capped = identify_anomalous_bins(
            current, reference, threshold, previous_kl=0.0
        )
        del block_sizes[:]
        capped.kl_trace
        assert block_sizes == [1] * 41
        assert capped == expected

    def test_kernel_is_called_once_per_block_not_per_round(self, block_sizes):
        rng = np.random.default_rng(3)
        current, reference = _disrupted(rng, 1024, 300)
        result = identify_anomalous_bins(
            current, reference, AlarmThreshold(0.0, 1.0), previous_kl=0.0
        )
        assert result.rounds == 300
        # Rounds 0-299 screen loud: only the stop is scored exactly.
        assert block_sizes == [1] == [result.scored]
        del block_sizes[:]
        result.kl_trace
        # 301 traced rounds: 4 + 16 + 64 + 128 + the 89 that remain.
        assert block_sizes == [4, 16, 64, 128, 89]

    def test_one_round_stop_scores_one_row_and_no_trace(self, block_sizes):
        """The screen clears the loud round 0, the kernel confirms the
        quiet round 1 alone, and the trace waits until it is read."""
        reference = np.full(64, 100.0)
        current = reference.copy()
        current[17] += 5000.0
        result = identify_anomalous_bins(
            current, reference, AlarmThreshold(0.01, 1.0), previous_kl=0.0
        )
        assert result.bins == (17,) and result.converged
        assert block_sizes == [1] == [result.scored]
        current[:] = 0.0  # the trace reads the identification's copies
        assert len(result.kl_trace) == 2
        assert block_sizes == [1, 2]
        result.kl_trace
        assert block_sizes == [1, 2]  # scored once

    def test_screen_that_overflows_is_left_to_the_kernel(self):
        """A bin of 1e306 over a near-empty reference bin overflows the
        screen's ``a * log2(a / b)`` to inf, while the kernel's
        normalised distance is a quiet ~7 bits: an infinite screen is
        never loud, so round 0 is scored and stops the run."""
        reference = np.full(8, 10.0)
        reference[3] = 0.0
        current = reference.copy()
        current[3] = 1e306
        result = _assert_equals_reference(current, reference, 100.0, 0.0)
        assert result.bins == () and result.converged
        assert 0 < result.kl_trace[0] < 100

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        pseudocount=st.sampled_from((0.0, 1e-3, 0.5, 7.0)),
    )
    def test_vanishing_and_appearing_bins(self, seed, pseudocount):
        """Bins that empty out or appear from nothing: with no smoothing
        the un-cleaned distance is ``inf`` and cleaning brings it back."""
        rng = np.random.default_rng(seed)
        reference = _counts(rng, 64, "sparse") + 1.0
        current = reference.copy()
        reference[rng.choice(64, 5, replace=False)] = 0.0
        current[rng.choice(64, 5, replace=False)] = 0.0
        bins, trace, _ = reference_identify_bins(
            current, reference, 1e-3, 0.0, pseudocount
        )
        result = identify_anomalous_bins(
            current,
            reference,
            AlarmThreshold(1e-3, 1.0),
            previous_kl=0.0,
            pseudocount=pseudocount,
        )
        assert result.bins == bins
        if pseudocount:
            assert result.kl_trace == trace
        else:
            assert np.isinf(result.kl_trace).tolist() == np.isinf(trace).tolist()
            assert np.allclose(result.kl_trace, trace, rtol=0, atol=1e-12)


class TestDetectorScoresClonesInOneStack:
    def test_kl_series_equals_per_clone_reference(self):
        config = DetectorConfig(
            clones=3, bins=64, vote_threshold=2, training_intervals=6
        )
        detector = HistogramDetector(Feature.DST_PORT, config, seed=4)
        clones = CloneSet(
            config.clones, config.bins, seed=clone_seed(4, Feature.DST_PORT)
        )
        rng = np.random.default_rng(2)
        previous = None
        alarmed = []
        for interval in range(12):
            values = rng.zipf(1.3, 3000).astype(np.uint64) % 5000
            if interval == 9:
                values = np.concatenate(
                    [values, np.full(4000, 4242, dtype=np.uint64)]
                )
            clones.reset()
            clones.update(values)
            snapshots = clones.snapshots()
            observation = detector.observe_snapshots(snapshots)
            for c, snapshot in enumerate(snapshots):
                expected = (
                    0.0
                    if previous is None
                    else reference_kl(
                        snapshot.counts, previous[c].counts, config.pseudocount
                    )
                )
                assert observation.clones[c].kl == expected
                assert type(observation.clones[c].kl) is float
            previous = snapshots
            if observation.alarm:
                alarmed.append(interval)
        assert 9 in alarmed  # the spike ran the identification path too


BAD_COUNTS = [-1.0, np.nan, np.inf, -np.inf]


class TestInvalidCountsAreATypedRefusal:
    """Negative / NaN / inf counts: ``ConfigError`` before any division,
    and numpy never gets to warn (a warning here fails the test)."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("bad", BAD_COUNTS)
    @pytest.mark.parametrize("side", ["current", "reference", "both"])
    @pytest.mark.parametrize("pseudocount", [0.0, 0.5])
    def test_refused_everywhere(self, bad, side, pseudocount):
        good = np.full((3, 8), 10.0)
        poisoned = good.copy()
        poisoned[1, 5] = bad
        current = good if side == "reference" else poisoned
        reference = good if side == "current" else poisoned
        with pytest.raises(ConfigError, match="non-negative"):
            kl_rows(current, reference, pseudocount)
        with pytest.raises(ConfigError, match="non-negative"):
            kl_rows(current, reference[1], pseudocount)
        with pytest.raises(ConfigError, match="non-negative"):
            kl_from_counts(current[1], reference[1], pseudocount)
        with pytest.raises(ConfigError, match="non-negative"):
            identify_anomalous_bins(
                current[1],
                reference[1],
                AlarmThreshold(0.01, 1.0),
                previous_kl=0.0,
                pseudocount=pseudocount,
            )

    @pytest.mark.parametrize("bad", BAD_COUNTS)
    @pytest.mark.parametrize("side", ["current", "reference"])
    def test_refused_when_every_round_screens_loud(
        self, monkeypatch, bad, side
    ):
        """A screen that clears every round hands the kernel nothing:
        the histograms are refused before it runs."""
        monkeypatch.setattr(
            binid, "_screen", lambda smoothed, total, order, last, *_: np.ones(
                last + 1, dtype=bool
            )
        )
        good = np.full(8, 10.0)
        poisoned = good.copy()
        poisoned[5] = bad
        current, reference = (
            (poisoned, good) if side == "current" else (good, poisoned)
        )
        with pytest.raises(ConfigError, match="non-negative"):
            identify_anomalous_bins(
                current, reference, AlarmThreshold(0.01, 1.0), previous_kl=0.0
            )
        with pytest.raises(ConfigError, match="finite total"):
            identify_anomalous_bins(
                np.full(8, 1e308), good, AlarmThreshold(0.01, 1.0), 0.0
            )

    def test_total_overflowing_or_undefined_refused(self):
        huge = np.full((1, 4), 1e308)
        with pytest.raises(ConfigError, match="finite total"):
            kl_rows(huge, np.ones(4))
        both_ways = np.array([[np.inf, -np.inf, 1.0, 1.0]])
        with pytest.raises(ConfigError, match="finite total"):
            kl_rows(both_ways, np.ones(4))

    @pytest.mark.parametrize("pseudocount", [-1.0, np.nan])
    def test_bad_pseudocount_refused(self, pseudocount):
        with pytest.raises(ConfigError, match="pseudocount"):
            kl_rows(np.ones((1, 4)), np.ones(4), pseudocount)

    def test_valid_edge_counts_do_not_warn(self):
        zeros = np.zeros((2, 4))
        assert kl_rows(zeros, zeros, 0.0).tolist() == [0.0, 0.0]
        appeared = np.array([[5.0, 5.0], [5.0, 0.0]])
        assert kl_rows(appeared, np.array([10.0, 0.0]), 0.0).tolist() == [
            np.inf,
            0.0,
        ]
