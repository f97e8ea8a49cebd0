"""Gossip matrices, neighbor sampling, and the pull rumor process."""

import itertools

import numpy as np
import pytest

from subgoss.errors import InvalidConfigError, SpreadMomentOverflowError
from subgoss.network import (
    GossipMatrix,
    _pull,
    complete_graph,
    estimate_spread_moment,
    sample_neighbor,
    simulate_rumor_spread,
    validate,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def rng_for(seed):
    return np.random.default_rng(seed)


def reference_rumor_spread(G, source, rng, max_rounds=10**6):
    """The per-round PULL process: one `rng.random` call per round, on the agents
    still uninformed in ascending order, and the pulls counted as (cdf <= u)."""
    n = G.n_agents
    informed = np.zeros(n, dtype=bool)
    informed[source] = True
    times = np.full(n, -1, dtype=np.int64)
    times[source] = 0
    rounds = 0
    while not informed.all():
        rounds += 1
        if rounds > max_rounds:
            raise InvalidConfigError(f"rumor did not spread within {max_rounds} rounds")
        uninformed = np.flatnonzero(~informed)
        partners = _pull(G.row_cdf[uninformed], rng.random(uninformed.size))
        newly = uninformed[informed[partners]]
        informed[newly] = True
        times[newly] = rounds
    return rounds, times


def random_gossip(data, n):
    """A matrix with zero diagonal and some entries zero, drawn by data. Its rows sum
    to 1, or to 0.6, so that a pull past the last agent is clipped to it."""
    seed = data.draw(st.integers(0, 2**32 - 1), label="matrix seed")
    r = np.random.default_rng(seed)
    probs = r.random((n, n)) * (r.random((n, n)) < data.draw(st.sampled_from([0.4, 1.0])))
    np.fill_diagonal(probs, 0.0)
    probs[np.arange(n), (np.arange(n) + 1) % n] += 0.05  # a ring keeps it irreducible
    mass = data.draw(st.sampled_from([1.0, 0.6]), label="row sum")
    return GossipMatrix(mass * probs / probs.sum(axis=1, keepdims=True))


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

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(data=st.data())
    def test_matches_the_per_round_process(self, data):
        """Every source of a complete or random graph: the same rounds and times as
        the per-round process, and the generator left where it leaves it, over
        several spreads on one generator."""
        n = data.draw(st.sampled_from([2, 3, 4, 8, 16]), label="N")
        g = data.draw(st.sampled_from(["complete", "random"]), label="graph")
        g = complete_graph(n) if g == "complete" else random_gossip(data, n)
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        mine, theirs = rng_for(seed), rng_for(seed)
        for source in [*range(n), -1]:  # -1 is the last agent, as numpy reads it
            for _ in range(3):
                rounds, times = simulate_rumor_spread(g, source, mine)
                want_rounds, want_times = reference_rumor_spread(g, source, theirs)
                assert rounds == want_rounds
                assert times.dtype == want_times.dtype and np.array_equal(times, want_times)
        assert mine.random() == theirs.random()

    def test_max_rounds_raises_at_the_same_round_and_state(self):
        block = np.zeros((4, 4))
        block[0, 1] = block[1, 0] = 1.0
        block[2, 3] = block[3, 2] = 1.0
        g = GossipMatrix(block)
        for max_rounds in (1, 7, 50):
            mine, theirs = rng_for(max_rounds), rng_for(max_rounds)
            with pytest.raises(InvalidConfigError, match=f"within {max_rounds} rounds"):
                simulate_rumor_spread(g, 0, mine, max_rounds=max_rounds)
            with pytest.raises(InvalidConfigError):
                reference_rumor_spread(g, 0, theirs, max_rounds=max_rounds)
            assert mine.bit_generator.state == theirs.bit_generator.state

    def test_negative_entry_is_refused(self):
        # the CDF row [0.5, 0.0, 1.0] decreases: bisection would pull agent 2 where
        # counting the entries <= u pulls agent 1
        p = np.array([[0.0, 1.0, 0.0], [0.5, -0.5, 1.0], [0.5, 0.5, 0.0]])
        r = rng_for(0)
        state = r.bit_generator.state
        with pytest.raises(InvalidConfigError, match="nonnegative"):
            simulate_rumor_spread(GossipMatrix(p), 0, r)
        with pytest.raises(InvalidConfigError, match="nonnegative"):
            estimate_spread_moment(GossipMatrix(p), 2.0, 10, r)
        assert r.bit_generator.state == state

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

    @pytest.mark.parametrize("seed", [0, 1, 5, 2718])
    def test_shared_generator_matches_the_per_round_process(self, seed):
        """As criterion 7 uses it: N = 4 then N = 2 on one generator, then a draw."""
        mine, theirs = rng_for(seed), rng_for(seed)
        for n, trials in ((4, 2000), (2, 2000), (16, 300), (3, 1)):
            g = complete_graph(n)
            est = estimate_spread_moment(g, 2.0, trials, mine)
            taus = np.array([reference_rumor_spread(g, 0, theirs)[0] for _ in range(trials)])
            assert est.taus.dtype == np.int64 and np.array_equal(est.taus, taus)
            assert est.mean == float(np.power(2.0, 2.0 * taus).mean())
        assert mine.random(3).tolist() == theirs.random(3).tolist()

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
