"""Checks of the benchmark's own oracles against hand-computed values and brute force."""

import itertools
import math

import pytest

import oracles


@pytest.mark.parametrize(
    "T, b, started, complete",
    [
        (1, 2.0, 1, 1),  # phase 1 = [1, 1]
        (2, 2.0, 2, 1),  # phase 2 = [2, 3] has started but not ended
        (3, 2.0, 2, 2),
        (2000, 2.0, 11, 10),  # 2^10 - 1 = 1023 <= 2000 < 2047 = 2^11 - 1
        (20_000, 2.0, 15, 14),  # 2^14 - 1 = 16383 <= 20000 < 32767
        (100, 1.5, 10, 9),  # lengths 1,2,3,4,6,8,12,18,26,39 end at ...,54,80,119
    ],
)
def test_phase_counts(T, b, started, complete):
    assert oracles.phase_counts(T, b) == (started, complete)


def test_beta_hand_computed():
    # 1 + sqrt(2 ln 20)
    assert oracles.beta(0.05, 2, 1.0, 0) == pytest.approx(3.4477468306808, rel=1e-12)
    # 1 + sqrt(2 + 2 ln 2), delta = 1/e
    assert oracles.beta(math.exp(-1), 2, 1.0, 2) == pytest.approx(2.8401886754134, rel=1e-12)
    # 2 + sqrt(2 ln 100 + 2 ln 51): S = 2 doubles the S sqrt(lambda) term only
    assert oracles.beta(0.01, 2, 1.0, 100, S=2.0) == pytest.approx(6.132068687404, rel=1e-12)


def test_linucb_regret_bound_hand_computed():
    # beta_1 = 1 + sqrt(2 + ln 2); bound = beta_1 sqrt(8 ln 2)
    assert oracles.linucb_regret_bound(1, 1, 1.0, math.exp(-1)) == pytest.approx(
        6.2192707175464, rel=1e-12
    )
    # beta_100 = 1 + sqrt(2 ln 100 + 2 ln 51); bound = sqrt(1600 beta^2 ln 51)
    assert oracles.linucb_regret_bound(100, 2, 1.0, 0.01) == pytest.approx(
        407.05170338579, rel=1e-12
    )


def test_exploration_term_hand_computed():
    # m=2, S=1, K/N+2 = 5; t=1: h = 2 gives 1 + 1; t=2: h = 4 gives 2 + 1/(sqrt 2 - 1)
    assert oracles.exploration_term(1, 2, 12, 4, 2.0) == pytest.approx(320.0, rel=1e-12)
    assert oracles.exploration_term(2, 2, 12, 4, 2.0) == pytest.approx(706.27416997970, rel=1e-12)


def brute_force_spread_moments(N, tol=1e-15):
    """Mean and variance of the pull spread time by enumerating every neighbour choice.

    State = set of informed agents; each round every uninformed agent picks each
    of its N-1 neighbours with equal probability, all choices enumerated.
    """
    full = frozenset(range(N))
    dist = {frozenset([0]): 1.0}
    mean = second = 0.0
    r = 0
    while sum(dist.values()) > tol:
        r += 1
        nxt = {}
        for informed, prob in dist.items():
            uninformed = sorted(full - informed)
            choices = [[j for j in range(N) if j != u] for u in uninformed]
            q = prob / (N - 1) ** len(uninformed)
            for picks in itertools.product(*choices):
                state = informed | {u for u, j in zip(uninformed, picks) if j in informed}
                if state == full:
                    mean += q * r
                    second += q * r * r
                else:
                    nxt[state] = nxt.get(state, 0.0) + q
        dist = nxt
    return mean, second - mean * mean


@pytest.mark.parametrize("N", [2, 3, 4])
def test_spread_dp_matches_brute_force(N):
    exact_mean, exact_var = oracles.pull_spread_moments(N)
    mean, var = brute_force_spread_moments(N)
    assert exact_mean == pytest.approx(mean, rel=1e-10)
    assert exact_var == pytest.approx(var, rel=1e-8, abs=1e-12)


def test_spread_dp_hand_computed():
    # N=3: stay with prob 1/4 per round; on leaving, 2/3 of the time one agent is
    # still uninformed and takes exactly one more round. Geom(3/4) + Bernoulli(2/3).
    mean, var = oracles.pull_spread_moments(3)
    assert mean == pytest.approx(2.0, rel=1e-12)
    assert var == pytest.approx(4 / 9 + 2 / 9, rel=1e-12)
    assert oracles.pull_spread_moments(2) == (1.0, 0.0)
