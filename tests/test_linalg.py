"""Linear-algebra kernels against dense independent oracles."""

import numpy as np
import pytest

from subgoss.environment import generate_instance
from subgoss.errors import (
    InsufficientSamplesError,
    InvalidDimensionError,
    NumericalDegeneracyError,
)
from subgoss.linalg import (
    Basis,
    ExploreStats,
    LinUcbStats,
    _score_terms,
    explore_estimate,
    project,
    random_orthonormal_basis,
    random_orthonormal_bases,
    subspace_overlaps,
    ucb_candidates,
    ucb_scores,
)


def rng_for(seed):
    return np.random.default_rng(seed)


def overlap(b1, b2):
    """The overlap of two bases, a batch of one pair."""
    return float(subspace_overlaps(b1.columns, b2.columns))


def record(stats, basis, a, reward):
    """Fold an ambient-space play into subspace statistics, as the runners do;
    returns the play's subspace coordinates."""
    x = basis.columns.T @ a
    stats.add_play_coords(x, reward)
    return x


def gram_of(coords, dim, lam=1.0):
    """V = lam*I + sum x x^T over the coordinates x of the recorded plays."""
    gram = lam * np.eye(dim)
    for x in coords:
        gram += np.outer(x, x)
    return gram


def score(stats, basis, a, beta):
    """Optimistic score of one ambient-space action: ucb_scores on a one-column batch."""
    return float(ucb_scores(stats, (basis.columns.T @ a)[:, None], beta)[0])


# ---------------------------------------------------------------------------
# Basis and projection


class TestBasis:
    def test_single_column_is_unit(self):
        b = random_orthonormal_basis(3, 1, rng_for(0))
        assert abs(np.linalg.norm(b.columns[:, 0]) - 1.0) < 1e-12

    def test_orthonormality_d4_m2(self):
        b = random_orthonormal_basis(4, 2, rng_for(7))
        gram = b.columns.T @ b.columns
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-10

    def test_invalid_dims(self):
        with pytest.raises(InvalidDimensionError):
            random_orthonormal_basis(3, 3, rng_for(0))
        with pytest.raises(InvalidDimensionError):
            random_orthonormal_basis(2, 0, rng_for(0))

    def test_batch_continues_the_stream_of_single_draws(self):
        # one (count, d, m) draw is the same stream as count (d, m) draws
        for d, m in ((3, 1), (8, 2), (10, 3)):
            r = rng_for(d)
            singles = [random_orthonormal_basis(d, m, r) for _ in range(5)]
            batch = random_orthonormal_bases(5, d, m, rng_for(d))
            for one, stacked in zip(singles, batch):
                assert np.array_equal(one.columns, stacked.columns)
        with pytest.raises(InvalidDimensionError):
            random_orthonormal_bases(4, 3, 3, rng_for(0))

    def test_non_orthonormal_rejected(self):
        with pytest.raises(InvalidDimensionError):
            Basis(np.ones((4, 2)))

    def test_random_pairs_never_overlap_fully(self):
        # 100 sampled pairs at (24, 2): overlap strictly below 1
        for seed in range(100):
            r = rng_for(seed)
            b1 = random_orthonormal_basis(24, 2, r)
            b2 = random_orthonormal_basis(24, 2, r)
            assert overlap(b1, b2) < 1.0

    def test_rotation_invariance_of_span_distribution(self):
        # Haar property: overlap statistics unchanged by a fixed rotation of one argument
        r = rng_for(42)
        q, _ = np.linalg.qr(r.standard_normal((8, 8)))
        plain, rotated = [], []
        for seed in range(300):
            b = random_orthonormal_basis(8, 2, rng_for(seed))
            ref = random_orthonormal_basis(8, 2, rng_for(10_000 + seed))
            plain.append(overlap(b, ref))
            rotated.append(overlap(Basis(q @ b.columns), ref))
        assert abs(np.mean(plain) - np.mean(rotated)) < 5 * np.std(plain) / np.sqrt(300)


class TestProject:
    def test_fixed_point(self):
        b = random_orthonormal_basis(6, 2, rng_for(1))
        x = b.columns[:, 0]
        assert np.allclose(project(b, x), x, atol=1e-12)

    def test_kernel(self):
        b = Basis(np.eye(4)[:, :2])
        x = np.array([0.0, 0.0, 1.0, -2.0])
        assert np.allclose(project(b, x), 0.0, atol=1e-15)

    def test_matches_dense_projector(self):
        b = random_orthonormal_basis(10, 3, rng_for(7))
        dense = b.columns @ b.columns.T
        for seed in range(20):
            x = rng_for(seed).standard_normal(10)
            assert np.max(np.abs(project(b, x) - dense @ x)) < 1e-12

    def test_idempotent(self):
        b = random_orthonormal_basis(12, 4, rng_for(3))
        x = rng_for(9).standard_normal(12)
        once = project(b, x)
        assert np.max(np.abs(project(b, once) - once)) < 1e-12

    def test_dimension_mismatch(self):
        b = random_orthonormal_basis(5, 2, rng_for(0))
        with pytest.raises(InvalidDimensionError):
            project(b, np.zeros(4))


class TestOverlap:
    def test_identical(self):
        b = random_orthonormal_basis(6, 2, rng_for(2))
        assert abs(overlap(b, b) - 1.0) < 1e-12

    def test_orthogonal(self):
        e = np.eye(4)
        assert overlap(Basis(e[:, :2]), Basis(e[:, 2:])) == 0.0

    def test_cos45(self):
        e = np.eye(3)
        b1 = Basis(e[:, :1])
        b2 = Basis(((e[:, 0] + e[:, 1]) / np.sqrt(2)).reshape(3, 1))
        assert abs(overlap(b1, b2) - 1 / np.sqrt(2)) < 1e-12

    def test_stacked_pairs_match_each_pair(self):
        r = rng_for(9)
        for m in (1, 2, 3):
            bases = random_orthonormal_bases(6, 8, m, r)
            first, second = np.triu_indices(6, 1)
            stacked = subspace_overlaps(
                np.stack([bases[i].columns for i in first]),
                np.stack([bases[j].columns for j in second]),
            )
            each = [overlap(bases[i], bases[j]) for i, j in zip(first, second)]
            assert stacked.tolist() == each
        assert subspace_overlaps(np.eye(4)[None, :, :2], np.eye(4)[None, :, :2]).tolist() == [1.0]


# ---------------------------------------------------------------------------
# explore estimator


def pinv_lsq_oracle(basis, plays):
    """(A A^T)^+ A r with A's columns the played basis columns (cutoff pinv)."""
    cols = np.column_stack([basis.columns[:, c] for c, _ in plays])
    r = np.array([rew for _, rew in plays])
    return np.linalg.pinv(cols @ cols.T, rcond=1e-10) @ (cols @ r)


class TestExploreEstimate:
    def test_noiseless_recovers_projection(self):
        b = random_orthonormal_basis(6, 2, rng_for(4))
        theta = rng_for(5).standard_normal(6)
        stats = ExploreStats(2)
        for c in range(2):
            stats.add_play(c, float(b.columns[:, c] @ theta))
        est = explore_estimate(stats, b)
        assert np.max(np.abs(est - project(b, theta))) < 1e-12

    def test_m1_sample_mean(self):
        b = Basis(np.eye(3)[:, :1])
        stats = ExploreStats(1)
        stats.add_play(0, 0.9)
        stats.add_play(0, 1.1)
        assert np.allclose(explore_estimate(stats, b), np.array([1.0, 0.0, 0.0]))

    def test_zero_count_raises(self):
        # no play at all raises; an unplayed column alone gets a zero mean
        b = random_orthonormal_basis(4, 2, rng_for(0))
        stats = ExploreStats(2)
        with pytest.raises(InsufficientSamplesError):
            explore_estimate(stats, b)
        stats.add_play(0, 1.0)
        assert np.array_equal(explore_estimate(stats, b), b.columns @ np.array([1.0, 0.0]))

    def test_matches_pinv_oracle(self):
        # random noisy round-robin designs vs the dense pseudo-inverse solution
        for seed in range(50):
            r = rng_for(seed)
            d = int(r.integers(3, 9))
            m = int(r.integers(1, min(4, d)))
            b = random_orthonormal_basis(d, m, r)
            n_plays = int(r.integers(m, 4 * m + 1))
            stats = ExploreStats(m)
            plays = []
            for i in range(n_plays):
                c = int(np.argmin(stats.count))
                rew = float(r.standard_normal())
                stats.add_play(c, rew)
                plays.append((c, rew))
            if np.any(stats.count == 0):
                continue
            est = explore_estimate(stats, b)
            assert np.max(np.abs(est - pinv_lsq_oracle(b, plays))) < 1e-9

    def test_repeated_entries_add_as_one_play_at_a_time(self):
        # a block naming entries more than once gives the bits of one call per play,
        # in the block's C order
        r = rng_for(13)
        lanes, ids, cols = (r.integers(0, n, (3, 40)) for n in (2, 3, 2))
        rewards = r.standard_normal((3, 40)) * 10.0 ** r.integers(-8, 8, (3, 40))
        block, single = ExploreStats((2, 3, 2)), ExploreStats((2, 3, 2))
        block.reward_sum[:] = single.reward_sum[:] = r.standard_normal((2, 3, 2))
        block.add_play((lanes, ids, cols), rewards)
        for index, reward in zip(zip(lanes.ravel(), ids.ravel(), cols.ravel()), rewards.ravel()):
            single.add_play(index, reward)
        assert np.array_equal(block.reward_sum, single.reward_sum)
        assert np.array_equal(block.count, single.count) and block.total_count == 120

    def test_estimate_stays_in_span(self):
        b = random_orthonormal_basis(8, 3, rng_for(11))
        r = rng_for(12)
        stats = ExploreStats(3)
        for i in range(9):
            stats.add_play(i % 3, float(r.standard_normal()))
        est = explore_estimate(stats, b)
        assert np.linalg.norm(est - project(b, est)) < 1e-10


def test_lemma2_concentration_monte_carlo():
    # P(||theta_tilde - P theta*|| > eps) below 2m exp(-eps^2 n/(2m^2)) + 3 sigma
    m, d, n, eps, trials = 2, 6, 32, 0.5, 2000
    b = random_orthonormal_basis(d, m, rng_for(21))
    theta = rng_for(22).standard_normal(d)
    theta /= np.linalg.norm(theta)
    ptheta = project(b, theta)
    col_values = b.columns.T @ theta
    r = rng_for(23)
    exceed = 0
    per_col = n // m
    for _ in range(trials):
        noise = r.standard_normal((m, per_col))
        ybar = col_values + noise.mean(axis=1)
        est = b.columns @ ybar
        if np.linalg.norm(est - ptheta) > eps:
            exceed += 1
    p_hat = exceed / trials
    bound = 2 * m * np.exp(-(eps**2) * n / (2 * m**2))
    sigma = np.sqrt(max(p_hat * (1 - p_hat), 1e-6) / trials)
    assert p_hat <= bound + 3 * sigma


# ---------------------------------------------------------------------------
# LinUCB statistics and scores


def dense_ridge_oracle(basis, plays, lam):
    """Pseudo-inverse of the d x d projected regularized Gram applied to P A r."""
    u = basis.columns
    p = u @ u.T
    vbar = lam * p
    rhs = np.zeros(basis.d)
    for a, rew in plays:
        pa = p @ a
        vbar += np.outer(pa, pa)
        rhs += rew * pa
    return np.linalg.pinv(vbar, rcond=1e-10) @ rhs


def close(got, want, tol):
    """Largest entry of |got - want| within tol times the largest entry of |want|."""
    return np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def assert_matches_solve_oracle(stats, gram, actions, beta=0.7, tol=1e-9):
    """The kept inverse, the ridge estimate and the scores against np.linalg.inv/solve
    on the Gram matrix of the recorded plays, for the transposed (column-major)
    action matrix of the ambient baseline and for a contiguous one."""
    assert close(stats.inv, np.linalg.inv(gram), tol)
    th = np.linalg.solve(gram, stats.moment)
    assert close(stats.theta_hat(), th, tol)
    for X in (actions.T, np.ascontiguousarray(actions.T)):
        quad = np.einsum("ij,ij->j", X, np.linalg.solve(gram, X))
        want = th @ X + beta * np.sqrt(np.maximum(quad, 0.0))
        assert close(ucb_scores(stats, X, beta), want, tol)


@pytest.mark.parametrize("dim", [1, 2, 24])
def test_sherman_morrison_matches_solve_oracle(dim):
    # 3*dim plays, then for dim 24 a Fig-1-length run of 20,000 more, so that
    # drift of the rank-1 updates would show
    r = rng_for(dim)
    stats = LinUcbStats(dim, 1.0)
    actions = r.standard_normal((6 * dim, dim))
    gram = np.eye(dim)
    for a in actions[: 3 * dim]:
        stats.add_play_coords(a, float(r.standard_normal()))
        gram += np.outer(a, a)
    assert_matches_solve_oracle(stats, gram, actions)
    if dim == 24:
        for i in r.integers(0, len(actions), 20_000):
            stats.add_play_coords(actions[i], float(r.standard_normal()))
            gram += np.outer(actions[i], actions[i])
        assert stats.count == 3 * dim + 20_000
        assert_matches_solve_oracle(stats, gram, actions)


class TestLinUcbStats:
    def test_empty_state_score(self):
        b = Basis(np.eye(4)[:, :2])
        stats = LinUcbStats(2, 2.0)
        a = np.array([1.0, 0.0, 0.0, 0.0])  # ||U^T a|| = 1
        assert abs(score(stats, b, a, 3.0) - 3.0 / np.sqrt(2.0)) < 1e-12

    def test_orthogonal_action_scores_zero(self):
        b = Basis(np.eye(4)[:, :2])
        stats = LinUcbStats(2, 1.0)
        record(stats, b, np.array([0.5, 0.5, 0.0, 0.0]), 1.0)
        a = np.array([0.0, 0.0, 1.0, 0.0])
        assert score(stats, b, a, 7.0) == 0.0

    def test_direct_update(self):
        b = Basis(np.eye(3)[:, :2])
        stats = LinUcbStats(2, 1.0)
        record(stats, b, np.array([1.0, 0.0, 0.0]), 0.5)
        assert np.allclose(stats.inv, np.linalg.inv(np.eye(2) + np.outer([1, 0], [1, 0])))
        assert np.allclose(stats.moment, [0.5, 0.0])
        assert stats.count == 1

    def test_orthogonal_play_only_bumps_count(self):
        b = Basis(np.eye(4)[:, :2])
        stats = LinUcbStats(2, 1.0)
        record(stats, b, np.array([0, 0, 1.0, 0]), 5.0)
        assert np.allclose(stats.inv, np.eye(2))
        assert np.allclose(stats.moment, 0.0)
        assert stats.count == 1

    def test_theta_hat_matches_dense_ridge_oracle(self):
        for seed in range(30):
            r = rng_for(seed)
            d, m, lam = 6, 2, 1.0
            b = random_orthonormal_basis(d, m, r)
            stats = LinUcbStats(m, lam)
            plays = []
            for _ in range(10):
                a = r.standard_normal(d)
                a /= max(1.0, np.linalg.norm(a))
                rew = float(r.standard_normal())
                record(stats, b, a, rew)
                plays.append((a, rew))
            theta_d = b.columns @ stats.theta_hat()
            assert np.max(np.abs(theta_d - dense_ridge_oracle(b, plays, lam))) < 1e-9

    def test_gram_eigenvalues_stay_above_lambda(self):
        r = rng_for(77)
        b = random_orthonormal_basis(5, 2, r)
        stats = LinUcbStats(2, 1.5)
        plays = []
        for _ in range(20):
            a = r.standard_normal(5)
            a /= np.linalg.norm(a)
            plays.append(record(stats, b, a, 0.0))
        # V^-1 is the inverse of the plays' Gram matrix, so its eigenvalues
        # lie in (0, 1/lambda]
        assert np.allclose(stats.inv, np.linalg.inv(gram_of(plays, 2, 1.5)))
        w = np.linalg.eigvalsh(stats.inv)
        assert w.min() > 0 and w.max() <= 1 / 1.5 + 1e-9

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(NumericalDegeneracyError):
            LinUcbStats(2, 0.0)


# ---------------------------------------------------------------------------
# LinUcbStats over a fixed block: the kept score terms against the from-scratch form

# how far the kept terms may drift from the from-scratch ones in 1e5 plays: quad
# relative to itself, greedy relative to the block's largest |greedy|. Measured
# drift on the Fig-1 blocks below: 3e-12 and 6e-11.
KEPT_QUAD_RTOL = 1e-9
KEPT_GREEDY_RTOL = 1e-9


def fig1_block(kind):
    """A Fig-1-size instance's block, (1, m, n), and its parameter in the block's
    coordinates: oful's 24 x 144 action matrix, or genie's m=2 candidate block of
    the true subspace (`ucb_candidates` of its coordinates)."""
    inst = generate_instance(24, 2, 12, 0, 120, 1.0, 1.0, rng_for(5))
    if kind == "oful":
        return np.ascontiguousarray(inst.action_set.T)[None], inst.theta_star
    u = inst.subspaces.bases[0].columns
    full = (u.T @ inst.action_set.T)[None]
    cand = ucb_candidates(full)
    return np.take_along_axis(full, cand[:, None, :], axis=2), u.T @ inst.theta_star


def play_both(kept, oracle, X, theta, steps, r, beta=2.0):
    """`steps` optimistic plays picked by the kept form, with noisy linear rewards,
    recorded in both forms: the kept one by column, the oracle by coordinates."""
    lanes = np.arange(X.shape[0])
    for _ in range(steps):
        pick = kept.scores(beta).argmax(axis=1)
        x = X[lanes, :, pick]
        reward = x @ theta + r.standard_normal(len(lanes))
        kept.add_play_coords(pick, reward)
        oracle.add_play_coords(x, reward)


@pytest.mark.parametrize("kind", ["oful", "genie"])
def test_kept_terms_track_the_from_scratch_form(kind):
    X, theta = fig1_block(kind)
    m = X.shape[1]
    kept, oracle = LinUcbStats(m, 1.0, (1,), X), LinUcbStats(m, 1.0, (1,))
    assert kept.moment is None and kept.theta_hat() is None
    # the empty statistics score with the bits of the from-scratch form
    assert np.array_equal(kept.scores(1.7), ucb_scores(oracle, X, 1.7))
    play_both(kept, oracle, X, theta, 100_000, rng_for(1))
    assert kept.count == oracle.count == 100_000
    quad, stacked = _score_terms(oracle.inv, oracle.theta_hat(), X)
    greedy = stacked[:, -1]
    assert np.max(np.abs(kept.quad - quad) / quad) < KEPT_QUAD_RTOL
    assert np.max(np.abs(kept.terms[:, -1] - greedy)) < KEPT_GREEDY_RTOL * np.abs(greedy).max()
    # the kept V^-1 X rows, or above m = 2 the kept V^-1 times the block, against
    # the oracle's V^-1 times the block
    kept_inv_x = kept.terms[:, :-1] if kept.inv is None else kept.inv @ X
    assert close(kept_inv_x, oracle.inv @ X, 1e-9)


def test_kept_terms_of_a_single_lane_and_copied_lanes():
    r = rng_for(8)
    X = r.standard_normal((3, 2, 7))
    theta = r.standard_normal(2)
    # one lane without a lane axis: a column index and a float reward
    kept, oracle = LinUcbStats(2, 1.0, (), X[0]), LinUcbStats(2, 1.0)
    for col in (3, 3, 0, 6):
        kept.add_play_coords(col, float(X[0, :, col] @ theta))
        oracle.add_play_coords(X[0, :, col], float(X[0, :, col] @ theta))
    assert close(kept.scores(0.9), ucb_scores(oracle, X[0], 0.9), 1e-12)
    # copy_lanes carries the block with the terms kept over it, both ways
    saved = LinUcbStats(2, 1.0, (3, 2), np.stack([X, X[::-1]], axis=1))
    play = LinUcbStats(2, 1.0, (3,), saved.block[:, 0])
    lanes, best = np.arange(3), np.array([1, 0, 1])
    play.copy_lanes(lanes, saved, (lanes, best))
    assert np.array_equal(play.block, X[[2, 1, 0]])
    play.add_play_coords(np.array([1, 2, 3]), np.ones(3))
    saved.copy_lanes((lanes, best), play, lanes)
    assert saved.count.tolist() == [[0, 1], [1, 0], [0, 1]]
    for name in ("block", "terms", "quad"):
        assert np.array_equal(getattr(saved, name)[lanes, best], getattr(play, name)), name
    # the kept V^-1 X rows of a played lane against the from-scratch V^-1 times its block
    oracle = LinUcbStats(2, 1.0, (3,))
    oracle.add_play_coords(X[[2, 1, 0], :, [1, 2, 3]], np.ones(3))
    assert close(play.terms[:, :-1], oracle.inv @ play.block, 1e-12)


def kept_lanes(m, lanes, n, plays, r):
    """Kept statistics of `lanes` lanes over random (m, n) blocks after `plays` random
    plays, and a copy of them."""
    X = r.standard_normal((lanes, m, n))
    stats = LinUcbStats(m, 1.0, (lanes,), X)
    for _ in range(plays):
        stats.add_play_coords(r.integers(0, n, lanes), r.standard_normal(lanes))
    return stats, copy_of(stats)


def copy_of(stats):
    twin = LinUcbStats(stats.block.shape[-2], 1.0, stats.count.shape, stats.block)
    every = np.arange(len(stats.count))
    twin.copy_lanes(every, stats, every)
    return twin


@pytest.mark.parametrize("m", [1, 2, 3])
def test_one_play_commit_has_the_bits_of_one_play(m):
    """A (1, lanes) reward records one play with the bits of a (lanes,) reward, in
    the V^-1 X form and with V^-1 kept apart (m = 3)."""
    r = rng_for(30 + m)
    one, block = kept_lanes(m, 5, 9, 40, r)
    for _ in range(30):
        col, reward = r.integers(0, 9, 5), r.standard_normal(5)
        one.add_play_coords(col, reward)
        block.add_play_coords(col, reward[None])
    for name in ("count", "terms", "quad", "inv"):
        a, b = getattr(one, name), getattr(block, name)
        assert (a is None and b is None) or np.array_equal(a, b), name


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("plays", [2, 7, 32])
def test_block_of_plays_matches_one_play_at_a_time(m, plays):
    """J plays of one column recorded at once, with their J rewards, leave the kept
    terms of J plays recorded one at a time, within the drift tolerances of the
    kept form."""
    r = rng_for(10 * m + plays)
    at_once, one_by_one = kept_lanes(m, 6, 11, 25, r)
    for _ in range(20):
        col, rewards = r.integers(0, 11, 6), 3 * r.standard_normal((plays, 6))
        at_once.add_play_coords(col, rewards)
        for reward in rewards:
            one_by_one.add_play_coords(col, reward)
    assert np.array_equal(at_once.count, one_by_one.count)
    quad, greedy = one_by_one.quad, one_by_one.terms[:, -1]
    assert np.max(np.abs(at_once.quad - quad) / quad) < KEPT_QUAD_RTOL
    assert np.max(np.abs(at_once.terms[:, -1] - greedy)) < KEPT_GREEDY_RTOL * np.abs(greedy).max()
    if m <= 2:
        assert close(at_once.terms[:, :-1], one_by_one.terms[:, :-1], 1e-9)
    else:
        assert close(at_once.inv, one_by_one.inv, 1e-9)


@pytest.mark.parametrize("m", [1, 2])
def test_lookahead_rows_score_the_plays_before_them(m):
    """Row j of `lookahead` scores the statistics after j single plays of the column
    with the first j rewards: row 0 with the bits of `scores`, the others within the
    drift tolerances of the kept form."""
    r = rng_for(50 + m)
    stats, played = kept_lanes(m, 7, 12, 30, r)
    k = 32
    col, rewards, beta = r.integers(0, 12, 7), r.standard_normal((k, 7)), 1 + r.random((k, 7))
    rows = stats.lookahead(col, rewards, beta)
    assert rows.shape == (k, 7, 12)
    assert np.array_equal(rows[0], stats.scores(beta[0]))
    for j in range(1, k):
        played.add_play_coords(col, rewards[j - 1])
        want = played.scores(beta[j])
        assert np.max(np.abs(rows[j] - want)) < KEPT_GREEDY_RTOL * np.abs(want).max(), j


def ellipsoid_max_oracle(stats, gram, basis, a, beta, n_grid=200_000):
    """Boundary sweep of the m=2 confidence ellipsoid (independent of the closed form)."""
    x = basis.columns.T @ a
    th = np.linalg.solve(gram, stats.moment)
    w, v = np.linalg.eigh(gram)
    half = v @ np.diag(1.0 / np.sqrt(w)) @ v.T  # gram^(-1/2)
    angles = np.linspace(0, 2 * np.pi, n_grid, endpoint=False)
    boundary = th[:, None] + beta * half @ np.vstack([np.cos(angles), np.sin(angles)])
    return float(np.max(x @ boundary))


class TestUcbScoreOracle:
    def test_matches_ellipsoid_maximization(self):
        for seed in range(10):
            r = rng_for(seed)
            b = random_orthonormal_basis(5, 2, r)
            stats = LinUcbStats(2, 1.0)
            plays = []
            for _ in range(5):
                a = r.standard_normal(5)
                a /= np.linalg.norm(a)
                plays.append(record(stats, b, a, float(r.standard_normal())))
            a = r.standard_normal(5)
            a /= np.linalg.norm(a)
            beta = 2.0
            got = score(stats, b, a, beta)
            want = ellipsoid_max_oracle(stats, gram_of(plays, 2), b, a, beta)
            assert abs(got - want) < 1e-6

    def test_monotone_in_beta_and_greedy_at_zero(self):
        r = rng_for(3)
        b = random_orthonormal_basis(6, 2, r)
        stats = LinUcbStats(2, 1.0)
        for _ in range(4):
            a = r.standard_normal(6)
            a /= np.linalg.norm(a)
            record(stats, b, a, float(r.standard_normal()))
        a = r.standard_normal(6)
        a /= np.linalg.norm(a)
        scores = [score(stats, b, a, beta) for beta in (0.0, 0.5, 1.0, 2.0)]
        assert all(s2 >= s1 - 1e-12 for s1, s2 in zip(scores, scores[1:]))
        greedy = float(stats.theta_hat() @ (b.columns.T @ a))
        assert abs(scores[0] - greedy) < 1e-12

    def test_ucb_dominance_when_theta_covered(self):
        # if theta* lies in the confidence set, the optimistic score upper-bounds the truth
        for seed in range(20):
            r = rng_for(seed)
            b = random_orthonormal_basis(6, 2, r)
            theta = project(b, r.standard_normal(6))
            stats = LinUcbStats(2, 1.0)
            plays = []
            for _ in range(8):
                a = r.standard_normal(6)
                a /= np.linalg.norm(a)
                plays.append(record(stats, b, a, float(a @ theta + 0.1 * r.standard_normal())))
            theta_m = b.columns.T @ theta
            diff = stats.theta_hat() - theta_m
            beta = float(np.sqrt(diff @ gram_of(plays, 2) @ diff)) + 1e-9
            a_star = theta / np.linalg.norm(theta)
            assert score(stats, b, a_star, beta) >= float(theta @ a_star) - 1e-9

    def test_argmax_matches_dense_pseudoinverse_form(self):
        # m-coordinate scores vs the ambient-space pinv(Vbar) formulation, 50 instances
        for seed in range(50):
            r = rng_for(seed)
            d, m = 8, 2
            b = random_orthonormal_basis(d, m, r)
            stats = LinUcbStats(m, 1.0)
            plays = []
            for _ in range(6):
                a = r.standard_normal(d)
                a /= np.linalg.norm(a)
                plays.append(record(stats, b, a, float(r.standard_normal())))
            actions = r.standard_normal((12, d))
            actions /= np.linalg.norm(actions, axis=1, keepdims=True)
            beta = 1.7
            coords = b.columns.T @ actions.T
            got = int(np.argmax(ucb_scores(stats, coords, beta)))
            # dense: Vbar = U gram U^T, Vbar^+ = U gram^-1 U^T
            u = b.columns
            vbar_pinv = u @ np.linalg.inv(gram_of(plays, m)) @ u.T
            theta_d = vbar_pinv @ (u @ stats.moment)
            p = u @ u.T
            dense = np.array(
                [
                    theta_d @ (p @ a) + beta * np.sqrt(max((p @ a) @ vbar_pinv @ (p @ a), 0.0))
                    for a in actions
                ]
            )
            assert got == int(np.argmax(dense))


@pytest.mark.parametrize("lanes", [1, 8, 64])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_score_bits_do_not_depend_on_position_or_width(m, lanes):
    """ucb_scores gives a column the same bits at any position in a block of any width
    from 2 to n. The runners score padded candidate blocks whose width depends on the
    batch, so a seed's plays rely on it; a one-column block is never scored."""
    r = rng_for(100 * m + lanes)
    n = 144
    stats = LinUcbStats(m, 1.0, (lanes,))
    for _ in range(5):
        stats.add_play_coords(r.standard_normal((lanes, m)), r.standard_normal(lanes))
    coords = r.standard_normal((lanes, m, n))
    beta = 1.0 + r.random(lanes)
    full = ucb_scores(stats, coords, beta)
    for width in range(2, n + 1):
        cols = r.permutation(n)[:width]
        assert np.array_equal(ucb_scores(stats, coords[:, :, cols], beta), full[:, cols]), width


class TestUcbCandidates:
    def test_m1_keeps_both_ends_and_their_ties(self):
        coords = np.array([[[0.5, -1.0, 2.0, 0.0, -1.0, 2.0, 1.5]]])
        assert ucb_candidates(coords).tolist() == [[1, 2, 4, 5]]

    def test_near_ties_of_an_end_are_kept(self):
        # scores of columns 1e-12 apart can round to the same value
        coords = np.array([[[0.5, 1.0 - 1e-12, 1.0, 0.0, 0.7]]])
        assert ucb_candidates(coords).tolist() == [[1, 2, 3]]

    def test_m2_drops_the_inside_of_the_hull(self):
        # a square's corners, its center, a point on an edge and one just inside
        square = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
        points = [(0, 0), *square, (1, 0), (0.999, 0.5)]
        coords = np.array(points, dtype=float).T[None]
        assert ucb_candidates(coords).tolist() == [[1, 2, 3, 4, 5]]

    def test_m3_keeps_every_column(self):
        coords = rng_for(0).standard_normal((2, 3, 5))
        assert ucb_candidates(coords).tolist() == [list(range(5))] * 2

    def test_rows_are_padded_by_their_first_candidate_to_two_or_more(self):
        # lane 0 is a triangle with an inside point, lane 1 one point five times
        lane0 = [(0, 0), (2, 0), (0.5, 0.5), (0, 2), (0.4, 0.4)]
        coords = np.stack([np.array(lane0, dtype=float).T, np.ones((2, 5))])
        assert ucb_candidates(coords).tolist() == [[0, 1, 3], [0, 0, 0]]
        assert ucb_candidates(np.ones((1, 2, 1))).tolist() == [[0, 0]]
