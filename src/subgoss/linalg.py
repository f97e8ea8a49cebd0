"""Small dense linear algebra for subspace bandits.

All per-subspace statistics are kept in m-dimensional subspace coordinates:
for a basis U the projected Gram matrix is Sigma = lambda*I_m + sum (U^T a)(U^T a)^T,
which is the full-rank core of the rank-deficient ambient-space regularized
Gram matrix U Sigma U^T.  Working in m coordinates is faster and better
conditioned than pseudo-inverting the d x d matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientSamplesError,
    InvalidDimensionError,
    NumericalDegeneracyError,
)

ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class Basis:
    """Orthonormal d x m basis of a subspace. The projector U U^T is never stored."""

    columns: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.columns, dtype=float)
        if u.ndim != 2:
            raise InvalidDimensionError("basis must be a 2-d array")
        object.__setattr__(self, "columns", u)
        gram = u.T @ u
        err = np.max(np.abs(gram - np.eye(u.shape[1])))
        if err > ORTHO_TOL:
            raise InvalidDimensionError(
                f"basis columns not orthonormal (max deviation {err:.3e})"
            )

    @property
    def d(self) -> int:
        return self.columns.shape[0]

    @property
    def m(self) -> int:
        return self.columns.shape[1]


def random_orthonormal_bases(count: int, d: int, m: int, rng: np.random.Generator) -> tuple:
    """`count` bases from one (count, d, m) standard Gaussian draw: the left singular
    vectors of each d x m slice (Haar on the Stiefel manifold)."""
    if not 1 <= m < d:
        raise InvalidDimensionError(f"need 1 <= m < d, got m={m}, d={d}")
    u, _, _ = np.linalg.svd(rng.standard_normal((count, d, m)), full_matrices=False)
    return tuple(Basis(columns) for columns in u)


def random_orthonormal_basis(d: int, m: int, rng: np.random.Generator) -> Basis:
    """One random basis, the batch of one of `random_orthonormal_bases`."""
    return random_orthonormal_bases(1, d, m, rng)[0]


def project(basis: Basis, x: np.ndarray) -> np.ndarray:
    """U (U^T x), the orthogonal projection of x onto span(U)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (basis.d,):
        raise InvalidDimensionError(f"expected vector of length {basis.d}, got {x.shape}")
    return basis.columns @ (basis.columns.T @ x)


def subspace_overlaps(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Largest singular value of U1^T U2 for each pair of stacked (..., d, m) bases U1
    and U2, by one stacked SVD; equals 1 iff the spans share a direction."""
    s = np.linalg.svd(first.swapaxes(-1, -2) @ second, compute_uv=False)
    return np.minimum(1.0, s[..., 0])


class ExploreStats:
    """Round-robin explore statistics: per-column reward sums and play counts.

    ExploreStats(m) holds one subspace. ExploreStats((L, K, m)) holds the K
    subspaces of L lanes at once, and stats[index] selects lanes or subspaces of
    the batch.
    """

    __slots__ = ("reward_sum", "count")

    def __init__(self, shape):
        self.reward_sum = np.zeros(shape)
        self.count = np.zeros(shape, dtype=np.int64)

    def __getitem__(self, index) -> ExploreStats:
        view = object.__new__(ExploreStats)
        view.reward_sum = self.reward_sum[index]
        view.count = self.count[index]
        return view

    @property
    def total_count(self) -> int:
        return int(self.count.sum())

    def next_column(self) -> int:
        # least-played column, lowest index on ties: keeps counts within 1 of each other
        return int(np.argmin(self.count))

    def add_play(self, column, reward) -> None:
        """One play per entry of `column`, an index into the arrays; on a batch,
        (lanes, subspaces, columns) index arrays, with `reward` of their broadcast
        shape. An entry named more than once gets its rewards added one at a time,
        in C order of the index arrays, as by one call per play in that order."""
        np.add.at(self.reward_sum, column, reward)
        np.add.at(self.count, column, 1)

    def mean(self) -> np.ndarray:
        """Per-column reward mean ybar; a column not yet played, as in phases too
        short to cover every column, gets 0."""
        return np.where(self.count > 0, self.reward_sum / np.maximum(self.count, 1), 0.0)


def explore_estimate(stats: ExploreStats, basis: Basis) -> np.ndarray:
    """Least-squares estimate from explore plays: U ybar with ybar the per-column reward mean.

    Equals the unconstrained least-squares solution for the round-robin design
    whose columns are basis vectors.
    """
    if stats.total_count == 0:
        raise InsufficientSamplesError("no explore play recorded yet")
    return basis.columns @ stats.mean()


# the largest m at which statistics over a block keep V^-1 X, (m + 1) x n per
# lane, in place of V^-1. The step on V^-1 X saves several numpy calls, but its
# outer product grows as m*n: over 2*10^3 steps with scoring it took 0.75-0.91 of
# the V^-1 step's time at m = 2 (n = 12 or 24, 2 to 128 lanes), and 1.11 (2
# lanes) to 2.1 (30 lanes) of it at m = 24, n = 144, oful's Fig-1 block
_KEEP_INV_X_MAX_M = 2


class LinUcbStats:
    """Projected-LinUCB statistics of one subspace, or of a batch of lanes, in m coordinates.

    With V = lambda*I_m + sum x x^T over recorded plays, where x = U^T a are
    the subspace coordinates of the played action, the statistics hold V^-1,
    through the Sherman-Morrison rank-1 update of one play,
    (V + x x^T)^-1 = V^-1 - u u^T / (1 + x^T u) with u = V^-1 x, and the play
    count. The ambient baseline keeps the same statistics in d coordinates,
    with x = a. No play or score solves a linear system.

    The statistics come in two forms. Built without a block, they keep
    inv = V^-1, moment = sum x*r and the ridge estimate inv @ moment, refreshed
    with inv: `ucb_scores` scores any coordinates from them from scratch, as
    resampled action sets need. Built over a fixed block X of (*lanes, m, n)
    column coordinates, they keep instead quad = diag(X^T V^-1 X) and
    terms = [V^-1 X; theta_hat^T X], the two terms of those columns' scores
    under V^-1 X; for m above `_KEEP_INV_X_MAX_M`, terms holds theta_hat^T X
    alone and inv = V^-1 is kept apart. `add_play_coords` takes each lane's
    played column of the block, reads theta_hat^T x, and u = V^-1 x where kept,
    off its column of `terms`, and updates every kept array by the rank-1 step
    seen through every column, in O(m*n) per lane; `scores` reads the
    optimistic scores off them. Neither form holds the moment and theta_hat of
    the other.

    `lanes` is the shape of a leading batch axis: every array carries it, and
    one call plays, or scores, every lane at once. The default () is a single
    lane; its operations are the batch operations with no lane axis, so each
    lane of a batch gets the bits it would get alone.
    """

    # the per-lane arrays; a form leaves the ones it does not keep None
    _ARRAYS = ("inv", "count", "moment", "_theta", "block", "terms", "quad")
    __slots__ = _ARRAYS + ("_lanes",)

    def __init__(self, m: int, lam: float, lanes: tuple = (), block=None):
        if lam <= 0:
            raise NumericalDegeneracyError("regularization must be positive")
        inv = np.broadcast_to(np.eye(m) / lam, (*lanes, m, m))
        self.count = np.zeros(lanes, dtype=np.int64)
        theta = np.zeros((*lanes, m))
        if block is None:
            self.inv, self.moment, self._theta = inv.copy(), np.zeros((*lanes, m)), theta
            self.block = self.terms = self.quad = None
        else:
            self.block = np.array(block, dtype=float)  # a copy: copy_lanes writes into it
            # the terms of the empty statistics have the bits `ucb_scores` gives them
            self.quad, stacked = _score_terms(inv, theta, self.block)
            if m <= _KEEP_INV_X_MAX_M:
                self.inv, self.terms = None, stacked
            else:
                self.inv, self.terms = inv.copy(), stacked[..., -1:, :].copy()
            self.moment = self._theta = None
        # index arrays of the lane axes, which select one column per lane
        self._lanes = np.indices(lanes, sparse=True)

    def add_play_coords(self, x: np.ndarray, reward) -> None:
        """Record a play with reward (lanes) in every lane: of coordinates x (lanes x m),
        or over a block, of the column x (lanes) of each lane's block. Over a block,
        a reward of shape (J, lanes) records J plays of the column, with those
        rewards in play order, as one rank-1 step: J x x^T has the Sherman-Morrison
        step of x x^T with den = 1 + J x^T u and u scaled by J; J = 1 gives the
        bits of one play."""
        if self.block is None:
            u = (self.inv @ x[..., None])[..., 0]
            # 1 + x^T u >= 1, since V^-1 is positive definite
            den = 1.0 + (x[..., None, :] @ u[..., None])[..., 0, 0]
            self.inv -= u[..., :, None] * u[..., None, :] / den[..., None, None]
            self.moment += np.asarray(reward)[..., None] * x
            self.count += 1
            self._theta = (self.inv @ self.moment[..., None])[..., 0]
            return
        plays, reward = 1, np.asarray(reward)
        if reward.ndim > self.count.ndim:
            plays, reward = len(reward), reward.sum(axis=0) / len(reward)
        # [V^-1 x; theta_hat^T x], or theta_hat^T x alone where V^-1 is kept apart;
        # an array index, a 0-d one too, gathers a copy, which is changed below
        lift = self.terms[(*self._lanes, slice(None), np.asarray(x))]
        if self.inv is None:
            u = lift[..., :-1]
        else:
            u = (self.inv @ self.block[(*self._lanes, slice(None), x)][..., None])[..., 0]
        # w = u^T X holds x^T V^-1 x_i for every column x_i, the played one's too
        w = (u[..., None, :] @ self.block)[..., 0, :]
        jw = w if plays == 1 else plays * w  # one play skips a product by 1
        den = 1.0 + jw[(*self._lanes, x)]
        scaled = jw / den[..., None]
        # the Sherman-Morrison step of J plays seen through each column: V^-1 x_i
        # loses u J w_i / den, x_i^T V^-1 x_i loses J w_i^2 / den, and theta_hat^T x_i
        # gains J w_i (rbar - theta_hat^T x) / den, rbar the mean reward
        lift[..., -1] -= reward
        self.quad -= w * scaled
        self.terms -= lift[..., :, None] * scaled[..., None, :]
        if self.inv is not None:
            ju = u if plays == 1 else plays * u
            self.inv -= u[..., :, None] * (ju[..., None, :] / den[..., None, None])
        self.count += plays

    def theta_hat(self) -> np.ndarray:
        """Ridge estimate in subspace coordinates, kept without a block only."""
        return self._theta

    def scores(self, beta) -> np.ndarray:
        """Optimistic scores of the block's columns, (lanes, n), from the kept terms:
        `ucb_scores` of the block, up to rounding."""
        return self.terms[..., -1, :] + np.asarray(beta)[..., None] * np.sqrt(
            np.maximum(self.quad, 0.0))

    def lookahead(self, x, rewards, beta) -> np.ndarray:
        """Optimistic scores of the block's columns at each of the next k steps,
        (k, lanes, n), if every lane plays its column x (lanes) at each of them.

        Row j scores the statistics after j plays of x with the first j of the
        (k, lanes) `rewards`, under the (k, lanes) radii `beta`, by the closed form
        of J = j plays (`add_play_coords`): with u = V^-1 x, w = u^T X and
        den = 1 + j x^T u, theta_hat^T X gains w (R_j - j theta_hat^T x) / den,
        R_j the sum of the j rewards, and diag(X^T V^-1 X) loses j w^2 / den.
        Row 0 has the bits of `scores(beta[0])`. Kept V^-1 X only
        (m <= `_KEEP_INV_X_MAX_M`).
        """
        lift = self.terms[(*self._lanes, slice(None), np.asarray(x))]
        w = (lift[..., None, :-1] @ self.block)[..., 0, :]
        plays = np.arange(len(rewards)).reshape((-1,) + (1,) * self.count.ndim)
        den = 1.0 + plays * w[(*self._lanes, x)]
        # R_j, the sum of the first j rewards (0 in row 0)
        before = np.cumsum(rewards, axis=0) - rewards
        gain = (before - plays * lift[..., -1]) / den
        greedy = self.terms[..., -1, :] + gain[..., None] * w
        quad = self.quad - (plays / den)[..., None] * (w * w)
        return greedy + np.asarray(beta)[..., None] * np.sqrt(np.maximum(quad, 0.0))

    def copy_lanes(self, index, source: LinUcbStats, source_index) -> None:
        """Set the lanes at `index` to copies of the lanes of `source` at `source_index`."""
        for name in self._ARRAYS:
            if (mine := getattr(self, name)) is not None:
                mine[index] = getattr(source, name)[source_index]


def _score_terms(inv, theta, coords):
    """diag(X^T V^-1 X) and [V^-1 X; theta_hat^T X] of coordinates X, the latter
    from one product [V^-1; theta_hat^T] @ X; see `ucb_scores`."""
    stacked = np.concatenate([inv, theta[..., None, :]], axis=-2) @ coords
    return np.einsum("...ij,...ij->...j", coords, stacked[..., :-1, :]), stacked


def ucb_scores(stats: LinUcbStats, coords: np.ndarray, beta) -> np.ndarray:
    """Optimistic scores for a batch of actions given as m x n coordinates, per lane,
    from scratch.

    score_i = <theta_hat, x_i> + beta * ||x_i||_{V^-1}, the closed form of the
    maximum of <theta, x_i> over the confidence ellipsoid of radius beta. The
    runners score resampled action sets, and genie with its coverage check, by
    this form; on a fixed set they read the same scores off the terms that
    `LinUcbStats` keeps over the set's block, which this form checks
    (tests/test_linalg.py). On a batch of lanes, coords is (lanes, m, n) and
    beta a scalar or one radius per lane. One product
    [V^-1; theta_hat^T] @ coords gives both V^-1 x_i, from which the squared
    norms are read, and the greedy term; the clip at 0 guards against rounding
    on near-null actions.

    A column's score has the same bits at any position in a block of any width
    n >= 2, for m <= 3 (tests/test_linalg.py), so a block of candidate columns
    scores each as the full set does. With numpy 2.4 on OpenBLAS 0.3.31, a
    1 x m by m x n product of theta_hat alone, or an einsum, gives m = 3 bits
    that depend on the width, and a one-column block takes another path.
    """
    quad, stacked = _score_terms(stats.inv, stats.theta_hat(), coords)
    return stacked[..., -1, :] + np.asarray(beta)[..., None] * np.sqrt(np.maximum(quad, 0.0))


# the 16 directions of the candidate filter, (2, 16), in counter-clockwise order
# from (1, 0); integer, as only their order and the argmax along each matter
_DIRECTIONS = np.array([[1, 2, 1, 1, 0, -1, -1, -2, -1, -2, -1, -1, 0, 1, 1, 2],
                        [0, 1, 1, 2, 1, 2, 1, 1, 0, -1, -1, -2, -1, -2, -1, -1]], dtype=float)
# how far inside the hull of the extremes a column must lie to be dropped
_INSIDE_MARGIN = 1e-9


def ucb_candidates(coords: np.ndarray) -> np.ndarray:
    """The columns of each lane's (m, n) block that can win an optimistic argmax.

    coords is (lanes, m, n). With beta > 0 the score of `ucb_scores` is convex in
    x, so a column strictly inside the convex hull of the others scores at most
    their maximum, and below it unless the score is constant on the hull: never
    for m = 2, and for m = 1 only if theta_hat cancels the norm term exactly.
    Scoring the candidates finds the argmax of every column, exactly in exact
    arithmetic.

    For m = 2 a column is dropped when it lies more than 1e-9 inside the polygon
    of the lane's extreme columns in 16 fixed directions (an Akl-Toussaint
    filter); for m = 1 when it lies more than 1e-9 inside the interval of the
    lane's smallest and largest columns; for m > 2 every column is kept. The
    margin keeps the near-ties of an extreme column, whose rounded scores can
    equal the extreme's.

    Returns an (lanes, C) array of each lane's kept columns in ascending order,
    C >= 2, each row padded at the end by repeats of its first column, so that
    the first maximum of a row of scores is never on the padding, and no block
    is scored one column wide.
    """
    lanes, m, n = coords.shape
    if m == 1:
        x = coords[:, 0]
        keep = ((x <= x.min(axis=1, keepdims=True) + _INSIDE_MARGIN)
                | (x >= x.max(axis=1, keepdims=True) - _INSIDE_MARGIN))
    elif m == 2:
        # the extreme column in each direction; in direction order they run
        # counter-clockwise around the hull, repeats next to each other
        extreme = np.einsum("ik,lin->lkn", _DIRECTIONS, coords).argmax(axis=2)
        corner = np.take_along_axis(coords, extreme[:, None, :], axis=2)  # (lanes, 2, 16)
        edge = (np.roll(corner, -1, axis=2) - corner)[..., None]
        # a column is inside when strictly left of every edge of nonzero length:
        # the cross product of the edge and the column's offset from the edge's
        # start, (lanes, 16, n), is above the margin
        left = (edge[:, 0] * (coords[:, 1, None, :] - corner[:, 1, :, None])
                - edge[:, 1] * (coords[:, 0, None, :] - corner[:, 0, :, None]))
        point = (edge == 0).all(axis=1)
        keep = ~((left > _INSIDE_MARGIN) | point).all(axis=1)
        # the extremes stay, also where all columns are one point and no edge counts
        keep[np.arange(lanes)[:, None], extreme] = True
    else:
        keep = np.ones((lanes, n), dtype=bool)
    count = keep.sum(axis=1)
    # np.nonzero lists every lane's kept columns in order, lane after lane
    kept = np.nonzero(keep)[1]
    slot = np.arange(max(count.max(), 2))
    return kept[(np.cumsum(count) - count)[:, None] + np.where(slot < count[:, None], slot, 0)]
