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


def mad_sigma(samples: np.ndarray) -> float:
    """Robust standard-deviation estimate: 1.4826 * MAD.

    Robust here means a few anomalous training intervals do not inflate
    the estimate the way they would inflate a sample standard deviation.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1 or len(samples) == 0:
        raise ConfigError("need a non-empty 1-D sample array")
    median = np.median(samples)
    mad = np.median(np.abs(samples - median))
    return float(MAD_TO_SIGMA * mad)


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

    def is_alarm(self, diff: float) -> bool:
        """One-sided test: only positive spikes raise alarms."""
        return diff > self.value

    def alarms(self, diffs: np.ndarray) -> np.ndarray:
        """Vectorized alarm mask over a first-difference series."""
        return np.asarray(diffs, dtype=np.float64) > self.value

    def with_multiplier(self, multiplier: float) -> "AlarmThreshold":
        """Same sigma, different sensitivity (used for ROC sweeps)."""
        return AlarmThreshold(sigma=self.sigma, multiplier=multiplier)


def estimate_threshold(
    training_diffs: np.ndarray, multiplier: float = DEFAULT_MULTIPLIER
) -> AlarmThreshold:
    """Calibrate an :class:`AlarmThreshold` from training first
    differences (typically the first day of the trace).

    Falls back to a tiny positive sigma when training is degenerate
    (all-identical diffs would otherwise make every nonzero spike alarm).
    """
    sigma = mad_sigma(training_diffs)
    if sigma == 0.0:
        spread = float(np.std(np.asarray(training_diffs, dtype=np.float64)))
        sigma = spread if spread > 0 else 1e-12
    return AlarmThreshold(sigma=sigma, multiplier=multiplier)
