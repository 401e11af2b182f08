"""One-histogram-at-a-time reference for the detection layer's scoring.

The 1-D smoothed KL and the one-bin-per-round cleaning loop exactly as
``repro.detection`` ran them before scoring was stacked into
``kl_rows`` and bin identification into blocks of rounds.  Kept in the
test tree, like ``tests/mining/reference.py``: simple enough to be
obviously the paper's Fig. 5 procedure, and the independent
implementation the stacked kernel must equal bit for bit.
"""

from __future__ import annotations

import numpy as np


def reference_kl(
    current: np.ndarray, reference: np.ndarray, pseudocount: float
) -> float:
    """Smoothed KL distance (bits) of one histogram against one
    reference; invalid counts are the caller's problem."""
    cur = np.asarray(current, dtype=np.float64) + pseudocount
    ref = np.asarray(reference, dtype=np.float64) + pseudocount
    cur_total = cur.sum()
    ref_total = ref.sum()
    if cur_total == 0 or ref_total == 0:
        return 0.0
    p = cur / cur_total
    q = ref / ref_total
    mask = p > 0
    if not mask.any():
        return 0.0
    with np.errstate(divide="ignore"):
        ratios = np.log2(p[mask] / q[mask])
    return float(np.sum(p[mask] * ratios))


def reference_threshold(diffs, multiplier: float):
    """A clone's calibration from its one series of training diffs:
    1.4826 * MAD, or the series' spread (a tiny positive sigma when
    that is 0 too) when training is degenerate."""
    from repro.detection.threshold import MAD_TO_SIGMA, AlarmThreshold
    from repro.errors import ConfigError

    samples = np.asarray(diffs, dtype=np.float64)
    if samples.size == 0:
        raise ConfigError("need a non-empty 1-D sample array")
    median = np.median(samples)
    sigma = float(MAD_TO_SIGMA * np.median(np.abs(samples - median)))
    if sigma == 0.0:
        spread = float(np.std(samples))
        sigma = spread if spread > 0 else 1e-12
    return AlarmThreshold(sigma=sigma, multiplier=multiplier)


def reference_identify_bins(
    current: np.ndarray,
    reference: np.ndarray,
    threshold_value: float,
    previous_kl: float,
    pseudocount: float,
    max_rounds: int | None = None,
) -> tuple[tuple[int, ...], tuple[float, ...], bool]:
    """``(bins, kl_trace, converged)`` of the Fig. 5 loop: reset the bin
    with the largest ``|cur - ref|``, re-take the KL, stop when quiet."""
    cur = np.asarray(current, dtype=np.float64).copy()
    ref = np.asarray(reference, dtype=np.float64)
    if max_rounds is None:
        max_rounds = len(cur)
    kl = reference_kl(cur, ref, pseudocount)
    trace = [kl]
    chosen: list[int] = []
    while kl - previous_kl > threshold_value and len(chosen) < max_rounds:
        diffs = np.abs(cur - ref)
        bin_idx = int(np.argmax(diffs))
        if diffs[bin_idx] == 0.0:
            # The alarm stands with nothing left to reset.
            return tuple(chosen), tuple(trace), False
        cur[bin_idx] = ref[bin_idx]
        chosen.append(bin_idx)
        kl = reference_kl(cur, ref, pseudocount)
        trace.append(kl)
    return tuple(chosen), tuple(trace), kl - previous_kl <= threshold_value


class ReferenceDetector:
    """One feature's detector as it ran before the bank pass: its own
    :class:`~repro.sketch.cloning.CloneSet` bins the column, and the
    clones that have a previous interval are scored by one ``kl_rows``
    call against those raw counts, re-smoothed every interval - where
    the bank bins every feature in one call and carries each interval's
    smoothed histograms forward.  An alarming clone's bins come from
    :func:`reference_identify_bins` (no screen, no blocks) and its
    values from the snapshot's hash back-map (no binning cells), so
    the bank's alarm path is checked against one sharing neither
    mechanism.  Threshold and voting are the library's own (each has
    its own tests)."""

    def __init__(self, feature, config, seed: int = 0):
        from repro.detection.detector import clone_seed
        from repro.sketch.cloning import CloneSet

        self.feature = feature
        self.config = config
        self.clones = CloneSet(
            config.clones, config.bins, seed=clone_seed(seed, feature)
        )
        self.interval = -1
        self.prev = [None] * config.clones
        self.prev_kl = [0.0] * config.clones
        self.training = [[] for _ in range(config.clones)]
        self.thresholds = [None] * config.clones

    def observe(self, flows):
        """``(clones, voted)``: per clone ``(kl, diff, alarm, bins,
        suspicious values)``, and the voted values."""
        from repro.detection.kl import kl_rows
        from repro.detection.voting import vote

        cfg = self.config
        self.clones.reset()
        self.clones.update(self.feature.extract(flows))
        snapshots = self.clones.snapshots()
        self.interval += 1
        kls = [0.0] * cfg.clones
        scored = [c for c, prev in enumerate(self.prev) if prev is not None]
        if scored:
            rows = kl_rows(
                np.stack([snapshots[c].counts for c in scored]),
                np.stack([self.prev[c] for c in scored]),
                cfg.pseudocount,
            )
            for c, kl in zip(scored, rows.tolist()):
                kls[c] = kl
        clones = []
        for c, snapshot in enumerate(snapshots):
            prev, kl = self.prev[c], kls[c]
            diff = 0.0 if prev is None else kl - self.prev_kl[c]
            alarm, bins, suspicious = False, (), np.empty(0, np.uint64)
            if self.thresholds[c] is None:
                if self.interval >= 2:
                    self.training[c].append(diff)
                if self.interval + 1 >= cfg.training_intervals:
                    self.thresholds[c] = reference_threshold(
                        self.training[c], cfg.multiplier
                    )
                    self.training[c] = []
            elif diff > self.thresholds[c].value and prev is not None:
                alarm = True
                bins, _, _ = reference_identify_bins(
                    snapshot.counts,
                    prev,
                    self.thresholds[c].value,
                    self.prev_kl[c],
                    cfg.pseudocount,
                )
                suspicious = snapshot.values_in_bins(list(bins))
            clones.append((kl, diff, alarm, bins, suspicious))
            self.prev[c] = snapshot.counts
            self.prev_kl[c] = kl
        voted = vote([clone[4] for clone in clones], cfg.vote_threshold)
        return clones, voted
