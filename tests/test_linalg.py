"""Linear-algebra kernels against dense independent oracles."""

import numpy as np
import pytest

from subgoss.errors import (
    InsufficientSamplesError,
    InvalidDimensionError,
    NumericalDegeneracyError,
)
from subgoss.linalg import (
    Basis,
    ExploreStats,
    LinUcbStats,
    explore_estimate,
    project,
    random_orthonormal_basis,
    subspace_overlap,
    ucb_scores,
)


def rng_for(seed):
    return np.random.default_rng(seed)


def record(stats, basis, a, reward):
    """Fold an ambient-space play into subspace statistics, as the runners do."""
    stats.add_play_coords(basis.columns.T @ a, reward)


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

    def test_non_orthonormal_rejected(self):
        with pytest.raises(InvalidDimensionError):
            Basis(np.ones((4, 2)))

    def test_random_pairs_never_overlap_fully(self):
        # 100 sampled pairs at (24, 2): overlap strictly below 1
        for seed in range(100):
            r = rng_for(seed)
            b1 = random_orthonormal_basis(24, 2, r)
            b2 = random_orthonormal_basis(24, 2, r)
            assert subspace_overlap(b1, b2) < 1.0

    def test_rotation_invariance_of_span_distribution(self):
        # Haar property: overlap statistics unchanged by a fixed rotation of one argument
        r = rng_for(42)
        q, _ = np.linalg.qr(r.standard_normal((8, 8)))
        plain, rotated = [], []
        for seed in range(300):
            b = random_orthonormal_basis(8, 2, rng_for(seed))
            ref = random_orthonormal_basis(8, 2, rng_for(10_000 + seed))
            plain.append(subspace_overlap(b, ref))
            rotated.append(subspace_overlap(Basis(q @ b.columns), ref))
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
        assert abs(subspace_overlap(b, b) - 1.0) < 1e-12

    def test_orthogonal(self):
        e = np.eye(4)
        assert subspace_overlap(Basis(e[:, :2]), Basis(e[:, 2:])) == 0.0

    def test_cos45(self):
        e = np.eye(3)
        b1 = Basis(e[:, :1])
        b2 = Basis(((e[:, 0] + e[:, 1]) / np.sqrt(2)).reshape(3, 1))
        assert abs(subspace_overlap(b1, b2) - 1 / np.sqrt(2)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            subspace_overlap(Basis(np.eye(3)[:, :1]), Basis(np.eye(4)[:, :1]))


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


def assert_matches_solve_oracle(stats, actions, beta=0.7, tol=1e-9):
    """The kept inverse, the ridge estimate and the scores against np.linalg.inv/solve
    on the accumulated Gram matrix, for the transposed (column-major) action matrix
    of the ambient baseline and for a contiguous one."""
    assert close(stats.inv, np.linalg.inv(stats.gram), tol)
    th = np.linalg.solve(stats.gram, stats.moment)
    assert close(stats.theta_hat(), th, tol)
    for X in (actions.T, np.ascontiguousarray(actions.T)):
        quad = np.einsum("ij,ij->j", X, np.linalg.solve(stats.gram, X))
        want = th @ X + beta * np.sqrt(np.maximum(quad, 0.0))
        assert close(ucb_scores(stats, X, beta), want, tol)


@pytest.mark.parametrize("dim", [1, 2, 24])
def test_sherman_morrison_matches_solve_oracle(dim):
    # 3*dim plays, then for dim 24 a Fig-1-length run of 20,000 more, so that
    # drift of the rank-1 updates would show
    r = rng_for(dim)
    stats = LinUcbStats(dim, 1.0)
    actions = r.standard_normal((6 * dim, dim))
    for a in actions[: 3 * dim]:
        stats.add_play_coords(a, float(r.standard_normal()))
    assert_matches_solve_oracle(stats, actions)
    if dim == 24:
        for i in r.integers(0, len(actions), 20_000):
            stats.add_play_coords(actions[i], float(r.standard_normal()))
        assert stats.count == 3 * dim + 20_000
        assert_matches_solve_oracle(stats, actions)


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
        assert np.allclose(stats.gram, np.eye(2) + np.outer([1, 0], [1, 0]))
        assert np.allclose(stats.moment, [0.5, 0.0])
        assert stats.count == 1

    def test_orthogonal_play_only_bumps_count(self):
        b = Basis(np.eye(4)[:, :2])
        stats = LinUcbStats(2, 1.0)
        record(stats, b, np.array([0, 0, 1.0, 0]), 5.0)
        assert np.allclose(stats.gram, np.eye(2))
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
        for _ in range(20):
            a = r.standard_normal(5)
            a /= np.linalg.norm(a)
            record(stats, b, a, 0.0)
        assert np.linalg.eigvalsh(stats.gram).min() >= 1.5 - 1e-9

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(NumericalDegeneracyError):
            LinUcbStats(2, 0.0)


def ellipsoid_max_oracle(stats, basis, a, beta, n_grid=200_000):
    """Boundary sweep of the m=2 confidence ellipsoid (independent of the closed form)."""
    x = basis.columns.T @ a
    th = np.linalg.solve(stats.gram, stats.moment)
    w, v = np.linalg.eigh(stats.gram)
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
            for _ in range(5):
                a = r.standard_normal(5)
                a /= np.linalg.norm(a)
                record(stats, b, a, float(r.standard_normal()))
            a = r.standard_normal(5)
            a /= np.linalg.norm(a)
            beta = 2.0
            got = score(stats, b, a, beta)
            want = ellipsoid_max_oracle(stats, b, a, beta)
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
            for _ in range(8):
                a = r.standard_normal(6)
                a /= np.linalg.norm(a)
                record(stats, b, a, float(a @ theta + 0.1 * r.standard_normal()))
            theta_m = b.columns.T @ theta
            diff = stats.theta_hat() - theta_m
            beta = float(np.sqrt(diff @ stats.gram @ diff)) + 1e-9
            a_star = theta / np.linalg.norm(theta)
            assert score(stats, b, a_star, beta) >= float(theta @ a_star) - 1e-9

    def test_argmax_matches_dense_pseudoinverse_form(self):
        # m-coordinate scores vs the ambient-space pinv(Vbar) formulation, 50 instances
        for seed in range(50):
            r = rng_for(seed)
            d, m = 8, 2
            b = random_orthonormal_basis(d, m, r)
            stats = LinUcbStats(m, 1.0)
            for _ in range(6):
                a = r.standard_normal(d)
                a /= np.linalg.norm(a)
                record(stats, b, a, float(r.standard_normal()))
            actions = r.standard_normal((12, d))
            actions /= np.linalg.norm(actions, axis=1, keepdims=True)
            beta = 1.7
            coords = b.columns.T @ actions.T
            got = int(np.argmax(ucb_scores(stats, coords, beta)))
            # dense: Vbar = U gram U^T, Vbar^+ = U gram^-1 U^T
            u = b.columns
            vbar_pinv = u @ np.linalg.inv(stats.gram) @ u.T
            theta_d = vbar_pinv @ (u @ stats.moment)
            p = u @ u.T
            dense = np.array(
                [
                    theta_d @ (p @ a) + beta * np.sqrt(max((p @ a) @ vbar_pinv @ (p @ a), 0.0))
                    for a in actions
                ]
            )
            assert got == int(np.argmax(dense))
