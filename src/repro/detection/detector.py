"""The histogram-based anomaly detector (paper Section II-C and II-D).

One :class:`HistogramDetector` monitors one traffic feature with ``C``
histogram clones.  Per interval and clone it tracks the KL distance to
the previous interval, alarms on positive first-difference spikes above
a MAD-calibrated threshold, localizes the anomalous bins by iterative
cleaning, maps bins back to feature values, and finally applies clone
voting to produce the per-feature meta-data.
"""

from __future__ import annotations

import functools
import math
import zlib
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.detection.binid import BinIdentification, identify_anomalous_bins
from repro.detection.features import Feature
from repro.detection.kl import (
    DEFAULT_PSEUDOCOUNT,
    divergence_rows,
    smooth_rows,
)
from repro.detection.threshold import (
    DEFAULT_MULTIPLIER,
    AlarmThreshold,
    estimate_sigmas,
)
from repro.detection.voting import vote
from repro.errors import CheckpointError, ConfigError, SketchError
from repro.flows.table import FlowTable
from repro.sketch.cloning import clone_counts
from repro.sketch.distinct import sorted_distinct
from repro.sketch.hashing import HashFamily, HashMatrix, UniversalHash
from repro.sketch.histogram import HistogramSnapshot
from repro.state import (
    finite,
    integer,
    listof,
    optional,
    pack_array,
    packed,
    read_fields,
    record,
)


def clone_seed(seed: int, feature: Feature) -> int:
    """Seed of the clone hash family for ``feature`` under run ``seed``.

    Distinct features must use distinct hash streams even with the same
    run seed, otherwise clones of different detectors correlate.
    zlib.crc32 is stable across processes (unlike built-in str hashing,
    which PYTHONHASHSEED randomizes).  A federation digest schema draws
    through it too (:func:`clone_hashes`), so merged value counts bin
    *identically* to a solo detector's - the precondition for exact
    merged detection.
    """
    feature_salt = zlib.crc32(feature.value.encode()) & 0xFFFF
    return seed * 131 + feature_salt


@functools.lru_cache(maxsize=64)
def clone_hashes(
    seed: int, feature: Feature, clones: int, bins: int
) -> HashMatrix:
    """``feature``'s ``C`` clone hash functions under run ``seed``, as
    a one-column :class:`~repro.sketch.hashing.HashMatrix`: the one
    draw a detector and a federation digest schema share."""
    family = HashFamily(bins, seed=clone_seed(seed, feature))
    return HashMatrix([family.take(clones)])


#: The least pseudocount :class:`DetectorConfig` accepts: any int64
#: bin count over it stays below the float64 maximum, so the smoothed
#: KL log ratio cannot overflow.
MIN_PSEUDOCOUNT = float(np.iinfo(np.int64).max / np.finfo(np.float64).max)


@dataclass(frozen=True, slots=True)
class DetectorConfig:
    """Tuning knobs of one histogram detector (paper Table III).

    Attributes:
        clones: ``C``/``K`` - number of histogram clones.
        bins: ``m = 2^k`` - histogram bins per clone.
        vote_threshold: ``V`` - clones that must agree on a value.
        multiplier: alarm sensitivity (threshold = multiplier * sigma).
        training_intervals: intervals used to calibrate sigma.
        pseudocount: Laplace smoothing for the KL computation.
    """

    clones: int = 3
    bins: int = 1024
    vote_threshold: int = 3
    multiplier: float = DEFAULT_MULTIPLIER
    training_intervals: int = 96
    pseudocount: float = DEFAULT_PSEUDOCOUNT

    def __post_init__(self) -> None:
        if self.clones < 1:
            raise ConfigError(f"clones must be >= 1: {self.clones}")
        if self.bins < 2:
            raise ConfigError(f"bins must be >= 2: {self.bins}")
        if not 1 <= self.vote_threshold <= self.clones:
            raise ConfigError(
                f"vote threshold {self.vote_threshold} out of "
                f"range [1, {self.clones}]"
            )
        if self.training_intervals < 2:
            raise ConfigError(
                f"need >= 2 training intervals: {self.training_intervals}"
            )
        # NaN fails both tests: a NaN multiplier would make the alarm
        # level NaN, and ``diff > nan`` is "no alarm" forever.
        if not 0 < self.multiplier < math.inf:
            raise ConfigError(
                f"multiplier must be finite and > 0: {self.multiplier}"
            )
        # Unsmoothed, a bin that gains flows over an empty reference
        # bin scores an infinite KL: the training sigma turns NaN, or
        # the checkpoint holds a distance its reader refuses.
        if not 0 < self.pseudocount < math.inf:
            raise ConfigError(
                f"pseudocount must be finite and > 0: {self.pseudocount}"
            )
        if self.pseudocount < MIN_PSEUDOCOUNT:
            raise ConfigError(
                f"pseudocount {self.pseudocount} is below "
                f"{MIN_PSEUDOCOUNT:.3g}: a flow count over it overflows "
                f"the KL log ratio"
            )


#: The suspicious values of a clone, and the voted values of a feature,
#: that found none: one shared read-only array, so a quiet interval
#: allocates none.
NO_VALUES = np.empty(0, dtype=np.uint64)
NO_VALUES.setflags(write=False)


class CloneObservation(NamedTuple):
    """Per-clone, per-interval detector output (a named tuple: a bank
    builds ``F x C`` of them every interval)."""

    clone_index: int
    kl: float
    diff: float
    alarm: bool
    bins: tuple[int, ...] = ()
    suspicious_values: np.ndarray = NO_VALUES
    bin_identification: BinIdentification | None = None


@dataclass(frozen=True, slots=True)
class FeatureObservation:
    """Per-feature, per-interval detector output after voting."""

    feature: Feature
    interval: int
    clones: tuple[CloneObservation, ...]
    voted_values: np.ndarray
    trained: bool

    @property
    def alarm(self) -> bool:
        """True when at least one clone alarmed this interval."""
        return any(clone.alarm for clone in self.clones)

    @property
    def alarm_votes(self) -> int:
        return sum(1 for clone in self.clones if clone.alarm)


#: One clone's checkpointed calibration (``thresholds[c]``).
_CALIBRATION = record(sigma=finite, multiplier=finite)


def _threshold(doc: object) -> AlarmThreshold:
    return AlarmThreshold(**_CALIBRATION(doc))


class CloneScorer:
    """The cross-interval state of ``F`` features' ``C`` clones, held
    as ``(F, C)`` arrays, and the one pass that scores an interval's
    ``(F, C, m)`` clone block against it.

    Per interval one ``smooth_rows`` and one ``divergence_rows`` call
    score every clone against the smoothed histogram the previous
    interval carried forward - the bits ``kl_rows`` would recompute
    from the previous counts, since ``smooth_rows`` treats each row
    alone - and the first differences, the training diffs, the
    calibration and the alarm test are array operations.  Python runs
    per clone only for a clone that alarms (its bins, their values and
    the vote) and to build the records.

    A detector bank scores all its rows at once; a
    :class:`HistogramDetector` is one row, of its own scorer or of its
    bank's.  Each row keeps its own interval index: a bank restored
    from documents written apart may hold rows at different intervals.
    """

    def __init__(self, config: DetectorConfig, features: Sequence[Feature]):
        clones, bins = config.clones, config.bins
        shape = (len(features), clones)
        self.config = config
        self.features = tuple(features)
        #: Per row, the index of the last observed interval (-1 before
        #: any), and whether its clones are calibrated.
        self.interval = np.full(len(features), -1, dtype=np.int64)
        self.trained = np.zeros(len(features), dtype=bool)
        # What the next interval reads: each clone's previous bin counts
        # (where ``has_prev``) and KL, and until it calibrates its
        # training diffs - interval ``i``'s at ``[..., i - 2]``.
        self.prev = np.zeros((*shape, bins))
        self.has_prev = np.zeros(shape, dtype=bool)
        self.prev_kl = np.zeros(shape)
        self.training_diffs = np.zeros(
            (*shape, max(0, config.training_intervals - 2))
        )
        # The previous counts as the KL reads them, smoothed and
        # normalised (``smooth_rows``), and each one's smoothed total:
        # the current histograms of one interval are the reference of
        # the next.
        self.reference = np.zeros((*shape, bins))
        self.reference_totals = np.zeros((*shape, 1))
        # Each calibrated clone's alarm rule: diff > multiplier * sigma.
        self.sigma = np.zeros(shape)
        self.multiplier = np.zeros(shape)

    def put(self, name: str, rows: slice, value: np.ndarray) -> None:
        """Store ``value`` as rows ``rows`` of the array ``name``.  When
        they are every row, ``value`` replaces the array as is (an
        interval's read-only block is not copied); otherwise it is
        written into the array, copied first if it is read-only."""
        if range(*rows.indices(len(self.features))) == range(len(self.features)):
            setattr(self, name, value)
            return
        held = getattr(self, name)
        if not held.flags.writeable:
            held = held.copy()
            setattr(self, name, held)
        held[rows] = value

    def score(
        self,
        block: np.ndarray,
        observed: Sequence[Sequence[np.ndarray]],
        cells: Sequence[Sequence[np.ndarray]],
        rows: slice = slice(None),
    ) -> list[FeatureObservation]:
        """Score one interval's ``(R, C, m)`` read-only clone histograms
        as rows ``rows`` of this scorer, one observation per row.

        ``observed[f][c]`` are the values clone ``c`` of row ``f``
        binned and ``cells[f][c]`` their bins (the bin->values
        back-map, read only by an alarming clone).  The block is kept,
        uncopied, as the next interval's previous counts.
        """
        cfg = self.config
        count, clones, bins = block.shape
        # Smoothing validates the counts: refuse before any state moves.
        current, totals = smooth_rows(block.reshape(-1, bins), cfg.pseudocount)
        has_prev, prev_kl = self.has_prev[rows], self.prev_kl[rows]

        if has_prev.all():
            kl = divergence_rows(
                current,
                totals,
                self.reference[rows].reshape(-1, bins),
                self.reference_totals[rows].reshape(-1, 1),
            ).reshape(count, clones)
        else:
            kl = np.zeros((count, clones))
            scored = np.flatnonzero(has_prev)
            if scored.size:
                kl.flat[scored] = divergence_rows(
                    current[scored],
                    totals[scored],
                    self.reference[rows].reshape(-1, bins)[scored],
                    self.reference_totals[rows].reshape(-1, 1)[scored],
                )
        diff = np.where(has_prev, kl - prev_kl, 0.0)
        interval = self.interval[rows] + 1
        trained = self.trained[rows]
        sigma, multiplier = self.sigma[rows], self.multiplier[rows]
        alarm = trained[:, np.newaxis] & has_prev & (diff > multiplier * sigma)

        if not trained.all():
            training = ~trained
            # Accumulate genuine diffs (skip the first two intervals,
            # whose KL/diff are degenerate), then calibrate on them.
            series = self.training_diffs[rows]
            keep = np.flatnonzero(training & (interval >= 2))
            series[keep, :, interval[keep] - 2] = diff[keep]
            due = np.flatnonzero(
                training & (interval + 1 >= cfg.training_intervals)
            )
            if due.size:
                sigma[due] = estimate_sigmas(
                    series[due].reshape(due.size * clones, -1)
                ).reshape(due.size, clones)
                multiplier[due] = cfg.multiplier
                trained[due] = True

        # Per row with an alarming clone, those clones' records.
        found: dict[int, dict[int, CloneObservation]] = {}
        for f, c in np.argwhere(alarm).tolist() if alarm.any() else ():
            bin_id = identify_anomalous_bins(
                block[f, c],
                self.prev[rows][f, c],
                AlarmThreshold(
                    sigma=sigma[f, c].item(), multiplier=multiplier[f, c].item()
                ),
                previous_kl=prev_kl[f, c].item(),
                pseudocount=cfg.pseudocount,
            )
            suspicious = NO_VALUES
            if bin_id.bins and observed[f][c].size:
                flagged = np.zeros(bins, dtype=bool)
                flagged[list(bin_id.bins)] = True
                suspicious = observed[f][c][flagged[cells[f][c]]]
            found.setdefault(f, {})[c] = CloneObservation(
                clone_index=c,
                kl=kl[f, c].item(),
                diff=diff[f, c].item(),
                alarm=True,
                bins=bin_id.bins,
                suspicious_values=suspicious,
                bin_identification=bin_id,
            )

        prev_kl[...] = kl
        has_prev[...] = True
        self.interval[rows] = interval
        self.put("prev", rows, block)
        self.put("reference", rows, current.reshape(block.shape))
        self.put("reference_totals", rows, totals.reshape(count, clones, 1))

        observations = []
        quiet = [False] * clones
        for f, (feature, kls, diffs, index, calibrated) in enumerate(
            zip(
                self.features[rows],
                kl.tolist(),
                diff.tolist(),
                interval.tolist(),
                trained.tolist(),
            )
        ):
            results = tuple(
                map(CloneObservation, range(clones), kls, diffs, quiet)
            )
            voted = NO_VALUES
            if f in found:
                results = tuple(found[f].get(c, r) for c, r in enumerate(results))
                voted = vote(
                    [clone.suspicious_values for clone in results],
                    cfg.vote_threshold,
                )
            observations.append(
                FeatureObservation(feature, index, results, voted, calibrated)
            )
        return observations


class HistogramDetector:
    """Stateful per-feature detector; call :meth:`observe` per interval.

    Its state is one row of a :class:`CloneScorer`: ``scorer``, a
    detector bank's, whose row for ``feature`` it reads and writes, or
    by default one of its own.
    """

    def __init__(
        self,
        feature: Feature,
        config: DetectorConfig,
        seed: int = 0,
        scorer: CloneScorer | None = None,
    ):
        self.feature = feature
        self.config = config
        self._hashes = clone_hashes(seed, feature, config.clones, config.bins)
        if scorer is None:
            scorer = CloneScorer(config, (feature,))
        if scorer.config != config or feature not in scorer.features:
            raise ConfigError(
                f"feature {feature.short_name} is not a row of the shared "
                f"scorer: it runs {scorer.config} over "
                f"{[f.short_name for f in scorer.features]}, this "
                f"detector {config}"
            )
        row = scorer.features.index(feature)
        self._scorer, self._rows = scorer, slice(row, row + 1)

    # ------------------------------------------------------------------
    @property
    def interval(self) -> int:
        """Index of the last observed interval (-1 before any)."""
        return int(self._scorer.interval[self._rows][0])

    @property
    def hash_fns(self) -> tuple[UniversalHash, ...]:
        """Clone ``c``'s hash function is ``hash_fns[c]``."""
        return self._hashes.columns[0]

    @property
    def trained(self) -> bool:
        return bool(self._scorer.trained[self._rows][0])

    def threshold(self, clone: int) -> AlarmThreshold:
        if not self.trained:
            raise ConfigError(
                f"clone {clone} not calibrated yet "
                f"(interval {self.interval} < training "
                f"{self.config.training_intervals})"
            )
        scorer, rows = self._scorer, self._rows
        return AlarmThreshold(
            sigma=scorer.sigma[rows][0, clone].item(),
            multiplier=scorer.multiplier[rows][0, clone].item(),
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-safe snapshot of the detector's cross-interval state.

        Only what the next interval reads travels: each clone's previous
        bin counts and KL, its training diffs until it calibrates, and
        its calibration - so the document stops growing once training
        ends.  The clone hash functions are NOT serialized: they derive
        deterministically from ``(seed, feature)`` at construction, and
        a restored detector rebuilds them.  The per-clone counts use the
        packed array encoding (bit-exact and cheap to serialize, which
        the per-batch service checkpoint needs).
        """
        scorer, rows, clones = self._scorer, self._rows, self.config.clones
        interval, trained = self.interval, self.trained
        held = max(0, interval - 1)
        return {
            "interval": interval,
            "prev": [
                pack_array(counts) if has else None
                for counts, has in zip(
                    scorer.prev[rows][0], scorer.has_prev[rows][0].tolist()
                )
            ],
            "prev_kl": scorer.prev_kl[rows][0].tolist(),
            "training_diffs": (
                [[] for _ in range(clones)]
                if trained
                else scorer.training_diffs[rows][0, :, :held].tolist()
            ),
            "thresholds": [
                {"sigma": thr.sigma, "multiplier": thr.multiplier}
                for thr in map(self.threshold, range(clones))
            ]
            if trained
            else [None] * clones,
        }

    def from_state(self, state: dict) -> None:
        """Restore :meth:`to_state` data into this detector (which must
        be built with the same config, feature, and seed - the hash
        streams are rebuilt, not restored)."""
        clones = self.config.clones

        def per_clone(kind):
            return listof(kind, length=clones)

        fields = read_fields(
            "detector checkpoint state", state, CheckpointError,
            interval=integer(-1),
            prev=per_clone(optional(packed(np.float64))),
            prev_kl=per_clone(finite),
            training_diffs=per_clone(listof(finite)),
            thresholds=per_clone(optional(_threshold)),
        )
        interval, bins = fields["interval"], self.config.bins
        for c, counts in enumerate(fields["prev"]):
            # The next interval's KL divides by these counts: refuse
            # here what the kernel would refuse one interval into the
            # resumed run (NaN fails the second test, inf the third).
            if counts is not None and not (
                len(counts) == bins
                and counts.min() >= 0
                and counts.sum() < np.inf
            ):
                raise CheckpointError(
                    f"malformed clone {c} reference counts in detector "
                    f"checkpoint: need {bins} non-negative bin counts "
                    f"with a finite total, got {len(counts)} summing to "
                    f"{counts.sum()}"
                )
        # A clone keeps one training diff per interval from the third
        # on until it calibrates, and none after.
        calibrated = interval + 1 >= self.config.training_intervals
        expected = 0 if calibrated else max(0, interval - 1)
        for c, (diffs, thr) in enumerate(
            zip(fields["training_diffs"], fields["thresholds"])
        ):
            if (thr is not None) != calibrated or len(diffs) != expected:
                raise CheckpointError(
                    f"malformed detector checkpoint state: clone {c} at "
                    f"interval {interval} holds {len(diffs)} training "
                    f"diffs and {'no' if thr is None else 'a'} threshold, "
                    f"which {self.config.training_intervals} training "
                    f"intervals do not leave"
                )
        # The carried reference is derived from the raw counts, never
        # stored: ``smooth_rows`` of the same rows is the same bits.
        # A clone without counts holds a zero row its flag never reads.
        prev = np.zeros((clones, bins))
        has_prev = [counts is not None for counts in fields["prev"]]
        for c, counts in enumerate(fields["prev"]):
            if counts is not None:
                prev[c] = counts
        try:
            reference, totals = smooth_rows(prev, self.config.pseudocount)
        except ConfigError as exc:
            raise CheckpointError(
                f"malformed reference counts in detector "
                f"checkpoint: {exc}"
            ) from exc
        scorer, rows = self._scorer, self._rows
        scorer.interval[rows] = interval
        scorer.trained[rows] = calibrated
        scorer.put("prev", rows, prev[np.newaxis])
        scorer.has_prev[rows] = has_prev
        scorer.put("reference", rows, reference[np.newaxis])
        scorer.put("reference_totals", rows, totals[np.newaxis])
        scorer.prev_kl[rows] = fields["prev_kl"]
        scorer.training_diffs[rows][0, :, :expected] = fields["training_diffs"]
        if calibrated:
            scorer.sigma[rows] = [thr.sigma for thr in fields["thresholds"]]
            scorer.multiplier[rows] = [
                thr.multiplier for thr in fields["thresholds"]
            ]

    # ------------------------------------------------------------------
    def observe(self, flows: FlowTable) -> FeatureObservation:
        """Process one interval and return the observation."""
        observed, counts = sorted_distinct(self.feature.extract(flows))
        block, cells = clone_counts(self._hashes, [(observed, counts)])
        return self._score(block, [(observed,) * self.config.clones], cells)

    def observe_snapshots(
        self, snapshots: list[HistogramSnapshot]
    ) -> FeatureObservation:
        """Process one interval given per-clone histogram snapshots
        (checked by :meth:`snapshot_rows`)."""
        counts, observed, cells = self.snapshot_rows(snapshots)
        block = np.stack(counts)[np.newaxis]
        block.setflags(write=False)
        return self._score(block, [observed], [cells])

    def snapshot_rows(
        self, snapshots: list[HistogramSnapshot]
    ) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
        """Each clone snapshot's counts, observed values and cells.

        The snapshots must use this detector's own clone hash functions
        (same order), otherwise the KL reference series would mix
        incompatible binnings - hence the refusal.
        """
        cfg = self.config
        if len(snapshots) != cfg.clones:
            raise SketchError(
                f"feature {self.feature.short_name}: got "
                f"{len(snapshots)} clone snapshots, detector runs "
                f"{cfg.clones} clones"
            )
        for c, (snapshot, fn) in enumerate(zip(snapshots, self.hash_fns)):
            if snapshot.hash_fn != fn:
                raise SketchError(
                    f"feature {self.feature.short_name}: clone {c} "
                    f"snapshot was binned by a different hash function "
                    f"than this detector's clone (check seed/clones/"
                    f"bins compatibility)"
                )
        return (
            [snapshot.counts for snapshot in snapshots],
            [snapshot.observed for snapshot in snapshots],
            [snapshot.cells for snapshot in snapshots],
        )

    def _score(
        self,
        block: np.ndarray,
        observed: Sequence[Sequence[np.ndarray]],
        cells: Sequence[Sequence[np.ndarray]],
    ) -> FeatureObservation:
        """:meth:`CloneScorer.score` of this detector's ``(1, C, m)``
        block, as its row."""
        (observation,) = self._scorer.score(block, observed, cells, self._rows)
        return observation
