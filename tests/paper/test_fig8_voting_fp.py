"""Fig. 8: probability that a normal feature value survives voting.

Paper: gamma_V (equation (3)) against K for B=1 anomalous bin (a) and
B=3 (b), m=1024 bins.  Marked values: for V=K=3 and B=1 the survival
probability is (1/1024)^3 ~ 9e-10; it grows dramatically with B and
shrinks with V.  The expected number of false feature values is gamma_V
times the observed distinct values (up to 65 536 for ports).
"""

from repro.analysis.voting_model import (
    expected_normal_values,
    fig8_grid,
    p_normal_included,
    simulate_normal_inclusion,
)

M = 1024


def test_fig8_normal_value_survival():
    exact_v3_b1 = p_normal_included(1, M, 3, 3)
    exact_v3_b3 = p_normal_included(3, M, 3, 3)
    mc = simulate_normal_inclusion(8, 64, 4, 2, trials=300_000, seed=5)
    exact_mc = p_normal_included(8, 64, 4, 2)

    assert abs(exact_v3_b1 - (1 / M) ** 3) < 1e-12
    assert exact_v3_b3 > exact_v3_b1 * 20, (  # "increases dramatically with B"
        f"B=3: {exact_v3_b3:.2e}, B=1: {exact_v3_b1:.2e}"
    )
    assert abs(mc - exact_mc) < 0.005, (
        f"Monte-Carlo {mc:.4f} vs analytic {exact_mc:.4f}"
    )
    # Decreasing in V at fixed K; increasing in K at fixed V=1.
    probs_v = [p_normal_included(3, M, 5, v) for v in range(1, 6)]
    assert probs_v == sorted(probs_v, reverse=True)
    probs_k = [p_normal_included(3, M, k, 1) for k in range(1, 26)]
    assert probs_k == sorted(probs_k)
    # The figure's two panels: B=3 (b) lies above B=1 (a) everywhere.
    panel_a, panel_b = fig8_grid(1, M), fig8_grid(3, M)
    assert panel_a.keys() == panel_b.keys()
    for v, series in panel_a.items():
        for (k, low), (k_b, high) in zip(series, panel_b[v], strict=True):
            assert k == k_b and high > low
    # False feature values = gamma_V x observed values (65 536 ports):
    # one vote of three clones passes ~192 at B=1, all three votes not
    # even one at B=3.
    assert expected_normal_values(1, M, 3, 1, 65_536) > 150
    assert expected_normal_values(3, M, 3, 3, 65_536) < 0.01
