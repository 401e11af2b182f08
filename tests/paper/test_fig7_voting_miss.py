"""Fig. 7: upper bound on the probability of missing an anomalous value.

Paper: with per-clone inclusion probability beta = 0.97, the bound
beta*_V (equation (2)) is plotted against K (1-25) for different vote
thresholds V.  Marked values: V=K=10 gives ~0.26 (= 1 - 0.97^10); V=5,
K=10 drives the miss probability down to ~1e-7/1e-8.  The bound grows
with V at fixed K - minimum at V=1, maximum at V=K.
"""

from repro.analysis.voting_model import (
    fig7_grid,
    p_anomalous_missed,
    simulate_anomalous_miss,
)

BETA = 0.97


def test_fig7_miss_probability_bound():
    grid = fig7_grid(BETA, range(1, 26))

    v10 = p_anomalous_missed(BETA, 10, 10)
    v5 = p_anomalous_missed(BETA, 10, 5)
    mc = simulate_anomalous_miss(BETA, 10, 10, trials=200_000, seed=7)

    assert v10 <= 1.0
    assert abs(v10 - (1 - BETA**10)) < 1e-12
    assert v5 < 1e-6, f"V=5, K=10: {v5:.2e} (paper: ~1e-7..1e-8)"
    assert abs(mc - v10) < 0.01, f"Monte-Carlo {mc:.3f} vs bound {v10:.3f}"
    # Monotone in V at fixed K=10.
    probs = [p_anomalous_missed(BETA, 10, v) for v in range(1, 11)]
    assert probs == sorted(probs)
    # For fixed V, more clones help (bound decreases in K).
    for v in (1, 5):
        series = [p for _, p in grid[v]]
        assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))
