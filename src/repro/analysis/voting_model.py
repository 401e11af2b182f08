"""Analytic voting model - equations (1)-(3) of the paper (Figs. 7-8).

With ``K`` clones and vote threshold ``V``:

* an anomalous feature value is included by each clone with probability
  ``beta`` (the probability that the value caused the detected
  disruption and its bin was identified).  Treating clones as
  independent yields a *lower bound* on the inclusion probability -
  equation (1) - because the per-clone inclusion events are positively
  correlated; its complement, equation (2), upper-bounds the miss
  probability ``beta*_V``;
* a normal feature value survives a clone only by colliding into one of
  the ``B`` anomalous bins out of ``m``, i.e. with probability
  ``q = B / m``, independently across clones because the hash functions
  are independent - equation (3) gives its survival probability exactly.

A Monte-Carlo simulator validates the analytic curves and lets us model
the positive correlation the bound ignores.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from repro.errors import ConfigError, check_count


def _check_kv(k: int, v: int) -> None:
    check_count("K", k)
    check_count("V", v)
    if v > k:
        raise ConfigError(f"V must be in [1, K={k}]: {v}")


def _check_probability(name: str, value: object) -> None:
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not 0 <= float(value) <= 1
    ):
        raise ConfigError(f"{name} must be a probability in [0, 1]: {value}")


def _check_bins(b: int, m: int) -> None:
    check_count("m", m)
    if (
        isinstance(b, bool)
        or not isinstance(b, numbers.Integral)
        or not 0 <= b <= m
    ):
        raise ConfigError(f"need an integer 0 <= B <= m: B={b}, m={m}")


def binomial_tail(p: float, k: int, v: int) -> float:
    """P(X >= v) for X ~ Binomial(k, p).

    The tail's terms summed with ``math.fsum``, each taken in log
    space: the binomial coefficients are exact integers (stepped from
    ``math.comb(k, v)``), so no term overflows whatever the clone count.
    """
    _check_kv(k, v)
    _check_probability("p", p)
    if p == 0 or p == 1:
        return float(p)
    log_p, log_q = math.log(p), math.log1p(-p)
    terms: list[float] = []
    comb = math.comb(k, v)
    for i in range(v, k + 1):
        terms.append(math.exp(math.log(comb) + i * log_p + (k - i) * log_q))
        comb = comb * (k - i) // (i + 1)
    return min(math.fsum(terms), 1.0)


def p_anomalous_included(beta: float, k: int, v: int) -> float:
    """Equation (1): lower bound on P(anomalous value kept by voting)."""
    return binomial_tail(beta, k, v)


def p_anomalous_missed(beta: float, k: int, v: int) -> float:
    """Equation (2): upper bound beta*_V on P(anomalous value lost)."""
    return 1.0 - p_anomalous_included(beta, k, v)


def p_normal_included(
    b: int, m: int, k: int, v: int
) -> float:
    """Equation (3): P(normal value survives voting).

    Args:
        b: number of anomalous bins selected per clone (``B``).
        m: total bins per histogram (``m``).
        k: number of clones.
        v: vote threshold.
    """
    _check_bins(b, m)
    return binomial_tail(b / m, k, v)


def expected_normal_values(
    b: int, m: int, k: int, v: int, observed_values: int
) -> float:
    """Average count of false-positive feature values after voting:
    gamma_V times the number of distinct values seen in the interval
    (the paper's example: 1 to 65 536 for ports)."""
    if observed_values < 0:
        raise ConfigError("observed_values must be >= 0")
    return p_normal_included(b, m, k, v) * observed_values


# ----------------------------------------------------------------------
# Monte-Carlo validation
# ----------------------------------------------------------------------
def simulate_anomalous_miss(
    beta: float,
    k: int,
    v: int,
    trials: int = 100_000,
    correlation: float = 0.0,
    seed: int = 0,
) -> float:
    """Simulated P(anomalous value lost by voting).

    ``correlation`` in [0, 1] interpolates between fully independent
    clones (0 - matches the analytic bound exactly) and fully correlated
    clones (1 - all clones agree).  The paper argues the true miss
    probability is *below* the independent bound because inclusion
    events are positively correlated; the simulation demonstrates it.
    """
    _check_kv(k, v)
    _check_probability("beta", beta)
    _check_probability("correlation", correlation)
    check_count("trials", trials)
    if trials < 2:
        raise ConfigError(
            f"trials must be >= 2 for the rank transform: {trials}"
        )
    rng = np.random.default_rng(seed)
    # Gaussian copula-ish shortcut: one shared uniform + per-clone
    # uniforms; clone includes the value when the mixed uniform < beta.
    shared = rng.random(trials)
    per_clone = rng.random((trials, k))
    mixed = correlation * shared[:, None] + (1 - correlation) * per_clone
    # Normalize the mixture so the marginal inclusion probability stays
    # beta: a sum of uniforms is not uniform, so each clone's column is
    # rank-transformed instead, rank r to the mid-rank (r + 0.5) /
    # trials - exactly round(beta * trials) trials include the value.
    ranks = mixed.argsort(axis=0).argsort(axis=0)
    included = (ranks + 0.5) / trials < beta
    votes = included.sum(axis=1)
    misses = int((votes < v).sum())
    return misses / trials


def simulate_normal_inclusion(
    b: int,
    m: int,
    k: int,
    v: int,
    trials: int = 100_000,
    seed: int = 0,
) -> float:
    """Simulated P(normal value survives voting): each clone hashes the
    value uniformly; survival requires landing in one of the B anomalous
    bins in >= V clones.  Independent across clones by construction."""
    _check_kv(k, v)
    _check_bins(b, m)
    check_count("trials", trials)
    rng = np.random.default_rng(seed)
    bins = rng.integers(0, m, size=(trials, k))
    hits = bins < b  # WLOG the anomalous bins are 0..B-1
    votes = hits.sum(axis=1)
    return float((votes >= v).mean())


# ----------------------------------------------------------------------
# Figure grids
# ----------------------------------------------------------------------
def fig7_grid(
    beta: float = 0.97, k_range: range = range(1, 26)
) -> dict[int, list[tuple[int, float]]]:
    """Upper bound beta*_V vs K for the paper's Fig. 7 curve family.

    Returns {V: [(K, miss_probability), ...]} for V in {1, ceil(K/2), K}
    plus the fixed values the paper highlights (V=5, V=10).
    """
    grid: dict[int, list[tuple[int, float]]] = {}
    for k in k_range:
        for v in sorted({1, max(1, k // 2), 5, 10, k}):
            if v > k:
                continue
            grid.setdefault(v, []).append(
                (k, p_anomalous_missed(beta, k, v))
            )
    return grid


def fig8_grid(
    b: int, m: int = 1024, k_range: range = range(1, 26)
) -> dict[int, list[tuple[int, float]]]:
    """gamma_V vs K for Fig. 8(a) (B=1) and Fig. 8(b) (B=3)."""
    grid: dict[int, list[tuple[int, float]]] = {}
    for k in k_range:
        for v in sorted({1, max(1, k // 2), 5, 10, k}):
            if v > k:
                continue
            grid.setdefault(v, []).append((k, p_normal_included(b, m, k, v)))
    return grid
