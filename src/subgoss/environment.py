"""Problem instance generation and subspace gaps.

Instances follow the synthetic protocol: K random m-dimensional subspaces
(SVD bases of Gaussian matrices), a hidden vector obtained by projecting a
standard Gaussian onto the true subspace, and an action set of unit-sphere
Gaussians with all subspace basis columns appended.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateInstanceError,
    GenerationFailureError,
    InvalidConfigError,
    InvalidDimensionError,
)
from .linalg import project, random_orthonormal_basis, subspace_overlap

DISJOINT_TOL = 1e-8


@dataclass(frozen=True)
class SubspaceCollection:
    """K orthonormal bases sharing ambient and subspace dimension, pairwise disjoint."""

    bases: tuple

    def __post_init__(self):
        bases = tuple(self.bases)
        object.__setattr__(self, "bases", bases)
        if not bases:
            raise InvalidConfigError("need at least one subspace")
        d, m = bases[0].d, bases[0].m
        for b in bases:
            if (b.d, b.m) != (d, m):
                raise InvalidDimensionError("all bases must share (d, m)")
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                if subspace_overlap(bases[i], bases[j]) >= 1.0 - DISJOINT_TOL:
                    raise GenerationFailureError(
                        f"subspaces {i} and {j} share a direction"
                    )

    @property
    def K(self) -> int:
        return len(self.bases)

    @property
    def d(self) -> int:
        return self.bases[0].d

    @property
    def m(self) -> int:
        return self.bases[0].m

    @cached_property
    def basis_columns(self) -> np.ndarray:
        """(K*m, d) read-only block of every basis column as a row, subspace by subspace.

        Every action set ends with these rows; built once per collection.
        """
        columns = np.vstack([b.columns.T for b in self.bases])
        columns.setflags(write=False)
        return columns


@dataclass(frozen=True)
class ProblemInstance:
    """One bandit environment shared by all agents."""

    subspaces: SubspaceCollection
    theta_star: np.ndarray
    true_index: int
    action_set: np.ndarray  # (n_actions, d), each row an action
    noise_std: float
    s_bound: float

    def __post_init__(self):
        theta = np.asarray(self.theta_star, dtype=float)
        actions = np.asarray(self.action_set, dtype=float)
        object.__setattr__(self, "theta_star", theta)
        object.__setattr__(self, "action_set", actions)
        d = self.subspaces.d
        if theta.shape != (d,):
            raise InvalidDimensionError("theta_star dimension mismatch")
        if actions.ndim != 2 or actions.shape[1] != d:
            raise InvalidDimensionError("action set dimension mismatch")
        if not 0 <= self.true_index < self.subspaces.K:
            raise InvalidConfigError("true_index out of range")
        resid = theta - project(self.subspaces.bases[self.true_index], theta)
        if np.linalg.norm(resid) > 1e-10:
            raise InvalidConfigError("theta_star does not lie in the true subspace")
        if np.linalg.norm(theta) > self.s_bound + 1e-12:
            raise InvalidConfigError("||theta_star|| exceeds s_bound")
        norms = np.linalg.norm(actions, axis=1)
        if norms.size and norms.max() > 1.0 + 1e-12:
            raise InvalidConfigError("all actions must have norm <= 1")

    @property
    def d(self) -> int:
        return self.subspaces.d

    @property
    def m(self) -> int:
        return self.subspaces.m

    @property
    def K(self) -> int:
        return self.subspaces.K


@dataclass(frozen=True)
class GapReport:
    delta: float
    per_subspace: np.ndarray


def _sample_unit_sphere(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def generate_instance(
    d: int,
    m: int,
    K: int,
    true_index: int,
    n_actions: int,
    noise_std: float,
    s_bound: float,
    rng: np.random.Generator,
    max_tries: int = 100,
) -> ProblemInstance:
    """Generate a random instance; resamples subspace collections violating disjointness."""
    if K < 2:
        raise InvalidConfigError("need K >= 2 subspaces")
    if not 1 <= m < d:
        raise InvalidConfigError(f"need 1 <= m < d, got m={m}, d={d}")
    if not 0 <= true_index < K:
        raise InvalidConfigError("true_index out of range")
    if n_actions < 1:
        raise InvalidConfigError("need at least one random action")
    if noise_std < 0 or s_bound <= 0:
        raise InvalidConfigError("noise_std must be >= 0 and s_bound > 0")

    collection = None
    for _ in range(max_tries):
        bases = tuple(random_orthonormal_basis(d, m, rng) for _ in range(K))
        try:
            collection = SubspaceCollection(bases)
            break
        except GenerationFailureError:
            continue
    if collection is None:
        raise GenerationFailureError(
            f"could not sample {K} disjoint {m}-dim subspaces in R^{d} "
            f"after {max_tries} attempts"
        )

    raw = project(collection.bases[true_index], rng.standard_normal(d))
    norm = np.linalg.norm(raw)
    if norm < 1e-12:
        raise GenerationFailureError("degenerate zero draw for theta_star")
    theta = raw * (min(norm, s_bound) / norm)

    randoms = _sample_unit_sphere(n_actions, d, rng)
    actions = np.vstack([randoms, collection.basis_columns])

    return ProblemInstance(
        subspaces=collection,
        theta_star=theta,
        true_index=true_index,
        action_set=actions,
        noise_std=noise_std,
        s_bound=s_bound,
    )


def resample_actions(instance: ProblemInstance, n_actions: int, rng: np.random.Generator) -> np.ndarray:
    """Fresh unit-sphere Gaussians with the basis columns appended (time-varying action mode)."""
    randoms = _sample_unit_sphere(n_actions, instance.d, rng)
    return np.vstack([randoms, instance.subspaces.basis_columns])


def compute_gap(instance: ProblemInstance) -> GapReport:
    """Per-subspace gaps ||P_true theta* - P_k theta*|| and their minimum over wrong subspaces."""
    theta = instance.theta_star
    p_true = project(instance.subspaces.bases[instance.true_index], theta)
    gaps = np.zeros(instance.K)
    for k, basis in enumerate(instance.subspaces.bases):
        gaps[k] = np.linalg.norm(p_true - project(basis, theta))
    others = np.delete(gaps, instance.true_index)
    delta = float(others.min())
    if delta <= 1e-10:
        raise DegenerateInstanceError(
            "two subspaces explain theta_star equally well (zero gap)"
        )
    return GapReport(delta=delta, per_subspace=gaps)
