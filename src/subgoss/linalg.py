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


def random_orthonormal_basis(d: int, m: int, rng: np.random.Generator) -> Basis:
    """Left singular vectors of a d x m standard Gaussian matrix (Haar on the Stiefel manifold)."""
    if not 1 <= m < d:
        raise InvalidDimensionError(f"need 1 <= m < d, got m={m}, d={d}")
    g = rng.standard_normal((d, m))
    u, _, _ = np.linalg.svd(g, full_matrices=False)
    return Basis(u)


def project(basis: Basis, x: np.ndarray) -> np.ndarray:
    """U (U^T x), the orthogonal projection of x onto span(U)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (basis.d,):
        raise InvalidDimensionError(f"expected vector of length {basis.d}, got {x.shape}")
    return basis.columns @ (basis.columns.T @ x)


def subspace_overlap(b1: Basis, b2: Basis) -> float:
    """Largest singular value of U1^T U2; equals 1 iff the spans share a direction."""
    if b1.d != b2.d:
        raise InvalidDimensionError("bases live in different ambient dimensions")
    s = np.linalg.svd(b1.columns.T @ b2.columns, compute_uv=False)
    return float(min(1.0, s[0])) if s.size else 0.0


class ExploreStats:
    """Round-robin explore statistics of one subspace: per-column reward sums and play counts."""

    __slots__ = ("reward_sum", "count")

    def __init__(self, m: int):
        self.reward_sum = np.zeros(m)
        self.count = np.zeros(m, dtype=np.int64)

    @property
    def total_count(self) -> int:
        return int(self.count.sum())

    def next_column(self) -> int:
        # least-played column, lowest index on ties: keeps counts within 1 of each other
        return int(np.argmin(self.count))

    def add_play(self, column: int, reward: float) -> None:
        self.reward_sum[column] += reward
        self.count[column] += 1


def explore_estimate(stats: ExploreStats, basis: Basis) -> np.ndarray:
    """Least-squares estimate from explore plays: U ybar with ybar the per-column reward mean.

    Equals the unconstrained least-squares solution for the round-robin design
    whose columns are basis vectors. Columns not yet played get a zero mean,
    which happens in phases too short to cover every column.
    """
    if stats.total_count == 0:
        raise InsufficientSamplesError("no explore play recorded yet")
    ybar = np.where(stats.count > 0, stats.reward_sum / np.maximum(stats.count, 1), 0.0)
    return basis.columns @ ybar


class LinUcbStats:
    """Projected-LinUCB statistics of one subspace in m coordinates.

    With V = lambda*I_m + sum x x^T over recorded plays, where x = U^T a are
    the subspace coordinates of the played action, the statistics are
    inv = V^-1, moment = sum x*r and the play count. The ambient baseline keeps
    the same statistics in d coordinates, with x = a. inv is kept by one
    Sherman-Morrison rank-1 update per play, and the ridge estimate
    inv @ moment is refreshed with it, so no play or score solves a linear
    system.
    """

    __slots__ = ("inv", "moment", "count", "_theta")

    def __init__(self, m: int, lam: float):
        if lam <= 0:
            raise NumericalDegeneracyError("regularization must be positive")
        self.inv = np.eye(m) / lam
        self.moment = np.zeros(m)
        self.count = 0
        self._theta = np.zeros(m)

    def add_play_coords(self, x: np.ndarray, reward: float) -> None:
        u = self.inv @ x
        # (V + x x^T)^-1 = V^-1 - u u^T / (1 + x^T u), where 1 + x^T u >= 1
        # since V^-1 is positive definite
        self.inv -= (u[:, None] * u) / (1.0 + x @ u)
        self.moment += reward * x
        self.count += 1
        self._theta = self.inv @ self.moment

    def theta_hat(self) -> np.ndarray:
        """Ridge estimate in subspace coordinates."""
        return self._theta


def ucb_scores(stats: LinUcbStats, coords: np.ndarray, beta: float) -> np.ndarray:
    """Optimistic scores for a batch of actions given as m x n coordinates.

    score_i = <theta_hat, x_i> + beta * ||x_i||_{V^-1}, the closed form of the
    maximum of <theta, x_i> over the confidence ellipsoid of radius beta. This is
    the one scoring rule of every policy. The squared norms are read off the
    kept inverse; the clip at 0 guards against rounding on near-null actions.
    """
    quad = np.einsum("ij,ij->j", coords, stats.inv @ coords)
    return stats.theta_hat() @ coords + beta * np.sqrt(np.maximum(quad, 0.0))
