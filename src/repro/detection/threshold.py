"""Robust alarm thresholds for KL first-difference series.

Section II-C: the first difference of the KL time series is
approximately N(0, sigma^2); the paper derives a *robust* estimate of
sigma via the median absolute deviation (MAD) from a limited number of
training intervals, and alerts when the positive first difference
exceeds the threshold (one-sided - negative spikes mark anomaly ends).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

#: Consistency constant making MAD unbiased for the normal sigma.
MAD_TO_SIGMA = 1.4826

#: Default threshold multiplier (alarm when diff > multiplier * sigma).
DEFAULT_MULTIPLIER = 4.0


def mad_sigma(samples: np.ndarray) -> float | np.ndarray:
    """Robust standard-deviation estimate: 1.4826 * MAD.

    Robust here means a few anomalous training intervals do not inflate
    the estimate the way they would inflate a sample standard deviation.
    A ``(n,)`` series gives a float; an ``(R, n)`` stack gives one
    estimate per row, each bit for bit its one-row call (the medians
    select and average per row).
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim not in (1, 2) or samples.shape[-1] == 0:
        raise ConfigError("need a non-empty 1-D sample array")
    # Unsmoothed KL diffs can be infinite: a median of inf and -inf,
    # or inf - inf, is NaN, which AlarmThreshold refuses - no warning.
    with np.errstate(invalid="ignore"):
        median = np.median(samples, axis=-1, keepdims=True)
        mad = np.median(np.abs(samples - median), axis=-1)
    sigma = MAD_TO_SIGMA * mad
    return float(sigma) if samples.ndim == 1 else sigma


@dataclass(frozen=True, slots=True)
class AlarmThreshold:
    """A calibrated one-sided alarm rule for KL first differences."""

    sigma: float
    multiplier: float = DEFAULT_MULTIPLIER

    def __post_init__(self) -> None:
        # NaN fails both tests: a NaN alarm level never alarms.
        if not 0 <= self.sigma < math.inf:
            raise ConfigError(f"sigma must be finite and >= 0: {self.sigma}")
        if not 0 < self.multiplier < math.inf:
            raise ConfigError(
                f"multiplier must be finite and > 0: {self.multiplier}"
            )

    @property
    def value(self) -> float:
        """The alarm level: ``multiplier * sigma``."""
        return self.multiplier * self.sigma

    def alarms(self, diffs: np.ndarray) -> np.ndarray:
        """Alarm mask over a first-difference series: one-sided, only
        positive spikes above the level raise alarms."""
        return np.asarray(diffs, dtype=np.float64) > self.value

    def with_multiplier(self, multiplier: float) -> "AlarmThreshold":
        """Same sigma, different sensitivity (used for ROC sweeps)."""
        return AlarmThreshold(sigma=self.sigma, multiplier=multiplier)


def estimate_sigmas(training_diffs: np.ndarray) -> np.ndarray:
    """One calibrated sigma per row of an ``(R, n)`` stack of training
    first differences (typically the first day of the trace): the MAD
    estimate, each row bit for bit its one-row call.

    Falls back to the row's spread, or a tiny positive sigma, when
    training is degenerate (all-identical diffs would otherwise make
    every nonzero spike alarm).  A sigma that is not finite is refused
    here, as :class:`AlarmThreshold` refuses it, before the caller
    stores any.
    """
    training_diffs = np.asarray(training_diffs, dtype=np.float64)
    if training_diffs.ndim != 2:
        raise ConfigError(
            f"need an (R, n) stack of training diffs, got shape "
            f"{training_diffs.shape}"
        )
    sigma = mad_sigma(training_diffs)
    degenerate = sigma == 0.0
    if degenerate.any():
        spread = np.std(training_diffs[degenerate], axis=-1)
        sigma[degenerate] = np.where(spread > 0, spread, 1e-12)
    if not np.isfinite(sigma).all():
        raise ConfigError(
            f"sigma must be finite and >= 0: {sigma[~np.isfinite(sigma)][0]}"
        )
    return sigma
