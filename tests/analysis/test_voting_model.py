"""Unit tests for the analytic voting model (equations 1-3)."""

import math

import pytest

from repro.analysis.voting_model import (
    binomial_tail,
    expected_normal_values,
    fig7_grid,
    fig8_grid,
    p_anomalous_included,
    p_anomalous_missed,
    p_normal_included,
    simulate_anomalous_miss,
    simulate_normal_inclusion,
)
from repro.errors import ConfigError
from tests.analysis.binomial_tails import P, TAILS

NAN = float("nan")


class TestBinomialTail:
    def test_v_one_complement(self):
        # P(X >= 1) = 1 - (1-p)^K
        assert binomial_tail(0.3, 5, 1) == pytest.approx(1 - 0.7**5)

    def test_v_equals_k(self):
        assert binomial_tail(0.9, 4, 4) == pytest.approx(0.9**4)

    def test_validation(self):
        with pytest.raises(ConfigError):
            binomial_tail(1.5, 3, 1)
        with pytest.raises(ConfigError):
            binomial_tail(0.5, 0, 1)
        with pytest.raises(ConfigError):
            binomial_tail(0.5, 3, 4)

    @pytest.mark.parametrize("k, v, index, expected", TAILS)
    def test_matches_the_recorded_tails(self, k, v, index, expected):
        got = binomial_tail(P[index], k, v)
        if expected > 1e-300:
            assert abs(got - expected) <= 1e-12 * expected
        else:
            assert got <= 1e-290

    @pytest.mark.parametrize("k", [1, 2, 25, 2000])
    def test_certain_and_impossible_clones_are_exact(self, k):
        for v in {1, (k + 1) // 2, k}:
            assert binomial_tail(0.0, k, v) == 0.0
            assert binomial_tail(1.0, k, v) == 1.0

    def test_thousands_of_clones_do_not_overflow(self):
        # The plain comb * p**i * q**(k-i) sum overflows from K ~ 1,030.
        tail = binomial_tail(0.5, 2000, 1000)
        assert 0.5 < tail < 0.52
        assert math.isfinite(binomial_tail(3 / 1024, 2000, 1))


#: Every input the voting model must refuse rather than answer.
REFUSALS = [
    (binomial_tail, (NAN, 3, 1), {}),
    (binomial_tail, (float("inf"), 3, 1), {}),
    (binomial_tail, (-0.1, 3, 1), {}),
    (binomial_tail, (True, 3, 1), {}),
    (binomial_tail, ("0.5", 3, 1), {}),
    (binomial_tail, (0.5, 2.5, 1), {}),
    (binomial_tail, (0.5, 3, 1.5), {}),
    (binomial_tail, (0.5, 3, 0), {}),
    (binomial_tail, (0.5, True, 1), {}),
    (p_anomalous_missed, (NAN, 10, 5), {}),
    (p_normal_included, (1.5, 4, 3, 1), {}),
    (p_normal_included, (-1, 4, 3, 1), {}),
    (p_normal_included, (1, 0, 3, 1), {}),
    (p_normal_included, (1, 4.0, 3, 1), {}),
    (p_normal_included, (1, 4, 3, 4), {}),
    (simulate_anomalous_miss, (NAN, 5, 3), {}),
    (simulate_anomalous_miss, (1.5, 5, 3), {}),
    (simulate_anomalous_miss, (0.9, 5, 3), {"correlation": NAN}),
    (simulate_anomalous_miss, (0.9, 5, 3), {"correlation": -0.5}),
    (simulate_anomalous_miss, (0.9, 5, 3), {"trials": 0}),
    (simulate_anomalous_miss, (0.9, 5, 3), {"trials": 1}),
    (simulate_anomalous_miss, (0.9, 5, 3), {"trials": 10.0}),
    (simulate_anomalous_miss, (0.9, 0, 1), {}),
    (simulate_normal_inclusion, (8, 64, 4, 2), {"trials": 0}),
    (simulate_normal_inclusion, (8, 64, 4, 2), {"trials": True}),
    (simulate_normal_inclusion, (8.5, 64, 4, 2), {}),
    (simulate_normal_inclusion, (8, 64, 4, 5), {}),
]


@pytest.mark.parametrize(
    "function, args, kwargs",
    REFUSALS,
    ids=[f"{f.__name__}{args}{kwargs or ''}" for f, args, kwargs in REFUSALS],
)
def test_refusals(function, args, kwargs):
    with pytest.raises(ConfigError):
        function(*args, **kwargs)


class TestEquations:
    def test_eq1_eq2_complementary(self):
        assert p_anomalous_included(0.97, 10, 5) + p_anomalous_missed(
            0.97, 10, 5
        ) == pytest.approx(1.0)

    def test_paper_value_v_equals_k_10(self):
        # Fig. 7 discussion: for V = K = 10, beta* = 1 - 0.97^10 ~ 0.26.
        assert p_anomalous_missed(0.97, 10, 10) == pytest.approx(
            1 - 0.97**10
        )
        assert p_anomalous_missed(0.97, 10, 10) == pytest.approx(0.263, abs=0.01)

    def test_paper_value_v5_k10_tiny(self):
        # Fig. 7: V=5, K=10 drives the miss probability to ~1e-7.
        assert p_anomalous_missed(0.97, 10, 5) < 1e-6

    def test_miss_probability_increases_with_v(self):
        probs = [p_anomalous_missed(0.97, 10, v) for v in range(1, 11)]
        assert probs == sorted(probs)

    def test_eq3_v_equals_k_3_b1(self):
        # Fig. 8(a): B=1, m=1024, K=V=3 -> (1/1024)^3 ~ 9.3e-10.
        assert p_normal_included(1, 1024, 3, 3) == pytest.approx(
            (1 / 1024) ** 3, rel=1e-6
        )

    def test_eq3_grows_with_b(self):
        assert p_normal_included(3, 1024, 3, 2) > p_normal_included(
            1, 1024, 3, 2
        )

    def test_eq3_decreases_with_v(self):
        probs = [p_normal_included(3, 1024, 5, v) for v in range(1, 6)]
        assert probs == sorted(probs, reverse=True)

    def test_eq3_validation(self):
        with pytest.raises(ConfigError):
            p_normal_included(5, 4, 3, 1)

    def test_expected_normal_values(self):
        expected = expected_normal_values(1, 1024, 3, 1, observed_values=65_536)
        # gamma_1 = 1-(1-1/1024)^3 ~ 0.0029 -> ~192 false values.
        assert expected == pytest.approx(192, rel=0.02)
        with pytest.raises(ConfigError):
            expected_normal_values(1, 1024, 3, 1, observed_values=-1)


class TestMonteCarlo:
    def test_independent_simulation_matches_eq2(self):
        analytic = p_anomalous_missed(0.9, 5, 3)
        simulated = simulate_anomalous_miss(
            0.9, 5, 3, trials=200_000, correlation=0.0, seed=1
        )
        assert simulated == pytest.approx(analytic, abs=0.005)

    def test_certain_inclusion_never_misses(self):
        """beta = 1: every clone includes the value in every trial."""
        assert simulate_anomalous_miss(1.0, 5, 5, trials=1000) == 0.0

    @pytest.mark.parametrize("beta", [0.0, 0.1234, 0.5004, 0.97])
    def test_independent_inclusion_rate_is_beta(self, beta):
        """With one clone the miss rate is its exclusion rate: the
        mid-rank transform includes exactly round(beta * trials)."""
        trials = 1000
        missed = simulate_anomalous_miss(beta, 1, 1, trials=trials, seed=4)
        assert missed == (trials - round(beta * trials)) / trials

    def test_correlated_clones_miss_less_dominated_by_bound(self):
        # Positive correlation concentrates votes: for V <= K the miss
        # probability stays at or below ~the independent bound scale.
        independent = simulate_anomalous_miss(
            0.9, 5, 5, trials=100_000, correlation=0.0, seed=2
        )
        correlated = simulate_anomalous_miss(
            0.9, 5, 5, trials=100_000, correlation=0.95, seed=2
        )
        assert correlated <= independent + 0.01

    def test_normal_inclusion_simulation_matches_eq3(self):
        analytic = p_normal_included(8, 64, 4, 2)
        simulated = simulate_normal_inclusion(
            8, 64, 4, 2, trials=300_000, seed=3
        )
        assert simulated == pytest.approx(analytic, abs=0.005)

    def test_simulation_validation(self):
        with pytest.raises(ConfigError):
            simulate_anomalous_miss(0.9, 5, 3, correlation=2.0)
        with pytest.raises(ConfigError):
            simulate_normal_inclusion(100, 64, 4, 2)


class TestFigureGrids:
    def test_fig7_grid_contains_marked_series(self):
        grid = fig7_grid()
        assert 5 in grid and 10 in grid
        ks = [k for k, _ in grid[5]]
        assert ks == sorted(ks)
        assert min(ks) >= 5  # V=5 needs K >= 5

    def test_fig8_grid_b_effect(self):
        grid_b1 = dict(fig8_grid(1)[5])
        grid_b3 = dict(fig8_grid(3)[5])
        for k in grid_b1:
            assert grid_b3[k] >= grid_b1[k]
