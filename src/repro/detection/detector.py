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
from dataclasses import dataclass, field

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
    estimate_threshold,
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


@dataclass(frozen=True, slots=True)
class CloneObservation:
    """Per-clone, per-interval detector output."""

    clone_index: int
    kl: float
    diff: float
    alarm: bool
    bins: tuple[int, ...] = ()
    suspicious_values: np.ndarray = field(default_factory=lambda: NO_VALUES)
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


class HistogramDetector:
    """Stateful per-feature detector; call :meth:`observe` per interval."""

    def __init__(self, feature: Feature, config: DetectorConfig, seed: int = 0):
        self.feature = feature
        self.config = config
        self._hashes = clone_hashes(seed, feature, config.clones, config.bins)
        self._interval = -1
        # What the next interval reads: each clone's previous bin
        # counts and KL, and (until calibrated) its training diffs.
        self._prev: list[np.ndarray | None] = [None] * config.clones
        # The previous counts as the KL reads them, smoothed and
        # normalised (``smooth_rows``): the current histograms of one
        # interval are the reference of the next.
        self._reference: tuple[np.ndarray, np.ndarray] | None = None
        self._prev_kl = [0.0] * config.clones
        self._training_diffs: list[list[float]] = [[] for _ in range(config.clones)]
        self._thresholds: list[AlarmThreshold | None] = [None] * config.clones

    # ------------------------------------------------------------------
    @property
    def interval(self) -> int:
        """Index of the last observed interval (-1 before any)."""
        return self._interval

    @property
    def hash_fns(self) -> tuple[UniversalHash, ...]:
        """Clone ``c``'s hash function is ``hash_fns[c]``."""
        return self._hashes.columns[0]

    @property
    def trained(self) -> bool:
        return all(thr is not None for thr in self._thresholds)

    def threshold(self, clone: int) -> AlarmThreshold:
        thr = self._thresholds[clone]
        if thr is None:
            raise ConfigError(
                f"clone {clone} not calibrated yet "
                f"(interval {self._interval} < training "
                f"{self.config.training_intervals})"
            )
        return thr

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
        return {
            "interval": self._interval,
            "prev": [
                None if counts is None else pack_array(counts)
                for counts in self._prev
            ],
            "prev_kl": list(self._prev_kl),
            "training_diffs": [
                list(series) for series in self._training_diffs
            ],
            "thresholds": [
                None
                if thr is None
                else {"sigma": thr.sigma, "multiplier": thr.multiplier}
                for thr in self._thresholds
            ],
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
        prev = fields["prev"]
        reference = None
        if any(counts is not None for counts in prev):
            rows = [np.zeros(bins) if c is None else c for c in prev]
            try:
                reference = smooth_rows(np.stack(rows), self.config.pseudocount)
            except ConfigError as exc:
                raise CheckpointError(
                    f"malformed reference counts in detector "
                    f"checkpoint: {exc}"
                ) from exc
        self._interval = interval
        self._prev = prev
        self._reference = reference
        self._prev_kl = fields["prev_kl"]
        self._training_diffs = fields["training_diffs"]
        self._thresholds = fields["thresholds"]

    # ------------------------------------------------------------------
    def observe(self, flows: FlowTable) -> FeatureObservation:
        """Process one measurement interval and return the observation."""
        observed, counts = sorted_distinct(self.feature.extract(flows))
        (block,), (cells,) = clone_counts(self._hashes, [(observed, counts)])
        return self.observe_binned(
            block, (observed,) * self.config.clones, cells
        )

    def observe_snapshots(
        self, snapshots: list[HistogramSnapshot]
    ) -> FeatureObservation:
        """Process one interval given per-clone histogram snapshots.

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
        block = np.stack([snapshot.counts for snapshot in snapshots])
        block.setflags(write=False)
        return self.observe_binned(
            block,
            [snapshot.observed for snapshot in snapshots],
            [snapshot.cells for snapshot in snapshots],
        )

    def observe_binned(
        self,
        counts: np.ndarray,
        observed: Sequence[np.ndarray],
        cells: Sequence[np.ndarray],
    ) -> FeatureObservation:
        """Process one interval given its ``(C, m)`` read-only clone
        histograms, binned by :attr:`hash_fns`, each clone's observed
        values and their cells (``cells[c][j]`` is the bin of
        ``observed[c][j]`` under clone ``c``: the bin->values back-map,
        read only by an alarming clone).

        Every clone with a reference is scored against the smoothed
        histogram the previous interval carried forward - the bits
        ``kl_rows`` would recompute from the previous counts, since
        ``smooth_rows`` treats each row alone.
        """
        cfg = self.config
        # Smoothing validates the counts: refuse before any state moves.
        current = smooth_rows(counts, cfg.pseudocount)
        self._interval += 1

        kls = [0.0] * cfg.clones
        scored = [c for c, prev in enumerate(self._prev) if prev is not None]
        if scored:
            assert self._reference is not None  # set with the counts
            rows = slice(None) if len(scored) == cfg.clones else scored
            distances = divergence_rows(
                current[0][rows],
                current[1][rows],
                self._reference[0][rows],
                self._reference[1][rows],
            )
            for c, kl in zip(scored, distances.tolist()):
                kls[c] = kl

        clone_results: list[CloneObservation] = []
        for c, prev in enumerate(self._prev):
            kl = kls[c]
            diff = 0.0 if prev is None else kl - self._prev_kl[c]

            alarm = False
            bins: tuple[int, ...] = ()
            suspicious = NO_VALUES
            bin_id: BinIdentification | None = None
            if self._thresholds[c] is None:
                # Training phase: accumulate genuine diffs (skip the
                # first two intervals, whose KL/diff are degenerate).
                if self._interval >= 2:
                    self._training_diffs[c].append(diff)
                if self._interval + 1 >= cfg.training_intervals:
                    self._thresholds[c] = estimate_threshold(
                        np.asarray(self._training_diffs[c]),
                        multiplier=cfg.multiplier,
                    )
                    self._training_diffs[c] = []
            else:
                threshold = self._thresholds[c]
                if threshold.is_alarm(diff) and prev is not None:
                    alarm = True
                    bin_id = identify_anomalous_bins(
                        counts[c],
                        prev,
                        threshold,
                        previous_kl=self._prev_kl[c],
                        pseudocount=cfg.pseudocount,
                    )
                    bins = bin_id.bins
                    if bins and observed[c].size:
                        flagged = np.zeros(cfg.bins, dtype=bool)
                        flagged[list(bins)] = True
                        suspicious = observed[c][flagged[cells[c]]]
            clone_results.append(
                CloneObservation(
                    clone_index=c,
                    kl=kl,
                    diff=diff,
                    alarm=alarm,
                    bins=bins,
                    suspicious_values=suspicious,
                    bin_identification=bin_id,
                )
            )
            self._prev_kl[c] = kl
        self._prev = list(counts)
        self._reference = current

        voted = NO_VALUES
        if any(clone.alarm for clone in clone_results):
            voted = vote(
                [clone.suspicious_values for clone in clone_results],
                cfg.vote_threshold,
            )
        return FeatureObservation(
            feature=self.feature,
            interval=self._interval,
            clones=tuple(clone_results),
            voted_values=voted,
            trained=self.trained,
        )
