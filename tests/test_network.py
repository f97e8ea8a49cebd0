"""Gossip matrices, neighbor sampling, and the pull rumor process."""

import itertools

import numpy as np
import pytest

from subgoss.errors import InvalidConfigError, SpreadMomentOverflowError
from subgoss.network import (
    GossipMatrix,
    complete_graph,
    estimate_spread_moment,
    sample_neighbor,
    simulate_rumor_spread,
    validate,
)


def rng_for(seed):
    return np.random.default_rng(seed)


class TestCompleteGraph:
    def test_n2_swap(self):
        g = complete_graph(2)
        assert np.array_equal(g.probs, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_n4_off_diagonal(self):
        g = complete_graph(4)
        off = g.probs[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 1 / 3)
        assert np.all(np.diag(g.probs) == 0)

    def test_n16_rows_sum_to_one(self):
        g = complete_graph(16)
        assert np.max(np.abs(g.probs.sum(axis=1) - 1.0)) <= 1e-12

    def test_too_small(self):
        with pytest.raises(InvalidConfigError):
            complete_graph(1)


class TestValidate:
    def test_complete_graph_ok(self):
        assert validate(complete_graph(5)) == []

    def test_block_diagonal_reports_components(self):
        block = np.zeros((4, 4))
        block[0, 1] = block[1, 0] = 1.0
        block[2, 3] = block[3, 2] = 1.0
        issues = validate(GossipMatrix(block))
        assert len(issues) == 1
        assert "strongly connected" in issues[0]
        assert "[0, 1]" in issues[0] and "[2, 3]" in issues[0]

    def test_bad_row_sum(self):
        p = complete_graph(3).probs.copy()
        p[1] *= 0.9
        issues = validate(GossipMatrix(p))
        assert any("row 1" in s for s in issues)

    def test_negative_entry(self):
        p = np.array([[0.0, 1.0], [2.0, -1.0]])
        issues = validate(GossipMatrix(p))
        assert any("negative" in s for s in issues)

    def test_not_square(self):
        with pytest.raises(InvalidConfigError):
            GossipMatrix(np.ones((2, 3)))


class TestSampleNeighbor:
    def test_n2_always_other(self):
        g = complete_graph(2)
        r = rng_for(0)
        assert all(sample_neighbor(g, 0, r) == 1 for _ in range(50))

    def test_frequencies_multinomial(self):
        g = complete_graph(4)
        r = rng_for(1)
        draws = np.array([sample_neighbor(g, 0, r) for _ in range(100_000)])
        assert 0 not in draws
        for j in (1, 2, 3):
            freq = np.mean(draws == j)
            sigma = np.sqrt((1 / 3) * (2 / 3) / 100_000)
            assert abs(freq - 1 / 3) <= 3 * sigma

    def test_zero_mass_never_sampled(self):
        p = np.array([[0.0, 0.5, 0.0, 0.5]] * 4)
        g = GossipMatrix(p)
        r = rng_for(2)
        draws = {sample_neighbor(g, 0, r) for _ in range(10_000)}
        assert draws <= {1, 3}


class TestRumorSpread:
    def test_n2_one_round(self):
        rounds, times = simulate_rumor_spread(complete_graph(2), 0, rng_for(0))
        assert rounds == 1
        assert list(times) == [0, 1]

    def test_informed_times_consistent(self):
        rounds, times = simulate_rumor_spread(complete_graph(8), 3, rng_for(5))
        assert times[3] == 0
        assert times.max() == rounds
        assert np.all(times >= 0)

    def test_disconnected_raises(self):
        block = np.zeros((4, 4))
        block[0, 1] = block[1, 0] = 1.0
        block[2, 3] = block[3, 2] = 1.0
        with pytest.raises(InvalidConfigError):
            simulate_rumor_spread(GossipMatrix(block), 0, rng_for(0), max_rounds=50)

    def test_complete16_mean_below_theory_anchor(self):
        # mean tau_spr <= log2(16) + ln(16) + 2 over 2000 trials
        r = rng_for(10)
        taus = [simulate_rumor_spread(complete_graph(16), 0, r)[0] for _ in range(2000)]
        assert np.mean(taus) <= np.log2(16) + np.log(16) + 2


def spread_moment_dp_oracle(G, b, source=0, tol=1e-12):
    """E[b^(2 tau)] by exact dynamic programming over informed subsets.

    State = frozenset of informed agents. Each round, every uninformed agent u
    independently becomes informed with probability sum_{j informed} G(u, j).
    Accumulates b^(2r) * P(finish at round r) until residual mass < tol.
    """
    n = G.n_agents
    full = frozenset(range(n))
    dist = {frozenset([source]): 1.0}
    total, r = 0.0, 0
    while dist:
        r += 1
        nxt = {}
        for informed, prob in dist.items():
            uninformed = [u for u in range(n) if u not in informed]
            p_inform = {u: sum(G.probs[u, j] for j in informed) for u in uninformed}
            for flips in itertools.product([0, 1], repeat=len(uninformed)):
                q = prob
                newly = []
                for u, f in zip(uninformed, flips):
                    q *= p_inform[u] if f else (1.0 - p_inform[u])
                    if f:
                        newly.append(u)
                if q == 0.0:
                    continue
                state = informed | frozenset(newly)
                if state == full:
                    total += q * b ** (2 * r)
                else:
                    nxt[state] = nxt.get(state, 0.0) + q
        # drop mass so small it cannot affect the moment at this b within tol
        dist = {s: p for s, p in nxt.items() if p * b ** (2 * (r + 60)) > tol or p > tol}
        if sum(dist.values()) < tol:
            break
    return total


class TestSpreadMoment:
    def test_n2_exact(self):
        est = estimate_spread_moment(complete_graph(2), 1.7, 100, rng_for(0))
        assert est.mean == pytest.approx(1.7**2)
        assert est.stderr < 1e-12

    def test_one_trial_has_no_standard_error(self):
        est = estimate_spread_moment(complete_graph(4), 2.0, 1, rng_for(0))
        assert est.mean == 2.0 ** (2 * est.taus[0])
        assert np.isnan(est.stderr)

    def test_matches_dp_oracle_n8(self):
        g = complete_graph(8)
        b = 1.3
        oracle = spread_moment_dp_oracle(g, b)
        est = estimate_spread_moment(g, b, 5000, rng_for(3))
        assert abs(est.mean - oracle) <= 3 * est.stderr

    def test_overflow_guard(self):
        with pytest.raises(SpreadMomentOverflowError):
            estimate_spread_moment(complete_graph(8), 1e300, 50, rng_for(0))

    def test_invalid_b(self):
        with pytest.raises(InvalidConfigError):
            estimate_spread_moment(complete_graph(2), 1.0, 10, rng_for(0))

    @pytest.mark.parametrize("b", [float("nan"), float("inf")])
    def test_b_must_be_finite(self, b):
        with pytest.raises(InvalidConfigError, match="1 < b < inf"):
            estimate_spread_moment(complete_graph(4), b, 10, rng_for(0))
