"""Instance generation, rewards and gaps."""

from dataclasses import replace

import numpy as np
import pytest

from subgoss.environment import (
    GapReport,
    ProblemInstance,
    SubspaceCollection,
    compute_gap,
    generate_instance,
    resample_actions,
)
from subgoss.errors import (
    DegenerateInstanceError,
    GenerationFailureError,
    InvalidConfigError,
    InvalidDimensionError,
)
from subgoss.linalg import Basis, project, random_orthonormal_basis
from subgoss.policies import PolicyParams, _EnvView, run_single_agent_subgoss


def rng_for(seed):
    return np.random.default_rng(seed)


def small_instance(seed=11, noise_std=1.0, d=6, m=2, K=3):
    return generate_instance(
        d=d, m=m, K=K, true_index=0, n_actions=5 * d,
        noise_std=noise_std, s_bound=1.0, rng=rng_for(seed),
    )


class TestSubspaceCollection:
    def test_mixed_dims_rejected(self):
        b1 = random_orthonormal_basis(6, 2, rng_for(0))
        b2 = random_orthonormal_basis(6, 3, rng_for(1))
        with pytest.raises(InvalidDimensionError):
            SubspaceCollection((b1, b2))

    def test_shared_direction_rejected(self):
        b = random_orthonormal_basis(6, 2, rng_for(0))
        with pytest.raises(GenerationFailureError):
            SubspaceCollection((b, b))

    def test_properties(self):
        inst = small_instance()
        assert (inst.K, inst.d, inst.m) == (3, 6, 2)


class TestGenerateInstance:
    def test_fig1_left_config_shape(self):
        inst = generate_instance(
            d=24, m=2, K=12, true_index=0, n_actions=120,
            noise_std=1.0, s_bound=1.0, rng=rng_for(5),
        )
        assert inst.action_set.shape == (120 + 12 * 2, 24)
        assert np.linalg.norm(inst.theta_star) <= 1.0 + 1e-12
        # theta* lies in the true subspace
        b = inst.subspaces.bases[0]
        assert np.linalg.norm(inst.theta_star - project(b, inst.theta_star)) < 1e-10

    def test_action_set_contains_all_basis_columns(self):
        inst = small_instance()
        cols = np.vstack([b.columns.T for b in inst.subspaces.bases])
        assert np.allclose(inst.action_set[-cols.shape[0]:], cols)

    def test_all_actions_unit_or_less(self):
        inst = small_instance()
        assert np.linalg.norm(inst.action_set, axis=1).max() <= 1.0 + 1e-12

    def test_deterministic_given_seed(self):
        a = small_instance(seed=3)
        b = small_instance(seed=3)
        assert np.array_equal(a.theta_star, b.theta_star)
        assert np.array_equal(a.action_set, b.action_set)

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfigError):
            generate_instance(6, 2, 1, 0, 10, 1.0, 1.0, rng_for(0))
        with pytest.raises(InvalidConfigError):
            generate_instance(6, 6, 3, 0, 10, 1.0, 1.0, rng_for(0))
        with pytest.raises(InvalidConfigError):
            generate_instance(6, 2, 3, 3, 10, 1.0, 1.0, rng_for(0))

    def test_true_index_agnostic(self):
        inst = generate_instance(6, 2, 3, 2, 10, 1.0, 1.0, rng_for(9))
        assert inst.true_index == 2
        b = inst.subspaces.bases[2]
        assert np.linalg.norm(inst.theta_star - project(b, inst.theta_star)) < 1e-10

    def test_instance_invariants_enforced(self):
        inst = small_instance()
        with pytest.raises(InvalidConfigError):
            ProblemInstance(
                subspaces=inst.subspaces,
                theta_star=np.ones(6),  # not in the true subspace
                true_index=0,
                action_set=inst.action_set,
                noise_std=1.0,
                s_bound=10.0,
            )


class TestReward:
    """The rewards the runners draw: the played action's value plus the agent's noise."""

    def logged_plays(self, inst, T):
        res = run_single_agent_subgoss(
            inst, PolicyParams(T=T, log_plays=True), rng_for(123), seed=0, action_key=0
        )
        bases = inst.subspaces.bases
        out = []
        for e in res.events:
            if e["event"] == "explore_play":
                a = bases[e["subspace"]].columns[:, e["column"]]
            elif e["event"] == "exploit_play":
                a = inst.action_set[e["action"]]
            else:
                continue
            out.append((a, e["reward"]))
        return out

    def test_aligned_action_noiseless(self):
        inst = small_instance(noise_std=0.0)
        aligned = inst.theta_star / np.linalg.norm(inst.theta_star)
        inst = replace(inst, action_set=np.vstack([aligned, inst.action_set[1:]]))
        plays = self.logged_plays(inst, 400)
        assert all(abs(r - a @ inst.theta_star) < 1e-12 for a, r in plays)
        aligned_rewards = [r for a, r in plays if np.array_equal(a, aligned)]
        assert aligned_rewards  # the optimistic rule settles on the best action
        assert all(abs(r - np.linalg.norm(inst.theta_star)) < 1e-12 for r in aligned_rewards)

    def test_mean_matches_inner_product(self):
        inst = small_instance(noise_std=1.0)
        plays = self.logged_plays(inst, 10_000)
        resid = np.array([r - a @ inst.theta_star for a, r in plays])
        assert abs(resid.mean()) < 3 / np.sqrt(len(resid))
        assert abs(resid.std() - 1.0) < 0.05


class TestOptimalAction:
    """The optimal value the runners charge regret against, read from their action-set view."""

    def optimal_value(self, inst):
        _, _, vstar, _ = _EnvView(inst, PolicyParams(T=1)).at(1)
        return vstar

    def test_matches_exhaustive_rescan(self):
        inst = small_instance(seed=17)
        values = [float(x @ inst.theta_star) for x in inst.action_set]
        assert self.optimal_value(inst) == max(values)

    def test_instantaneous_regret_at_most_2s(self):
        inst = small_instance(seed=29)
        worst = min(float(a @ inst.theta_star) for a in inst.action_set)
        assert self.optimal_value(inst) - worst <= 2 * inst.s_bound + 1e-12


class TestComputeGap:
    def test_orthogonal_case(self):
        e = np.eye(4)
        coll = SubspaceCollection((Basis(e[:, :1]), Basis(e[:, 1:2])))
        inst = ProblemInstance(
            subspaces=coll, theta_star=e[:, 0], true_index=0,
            action_set=e[:2], noise_std=0.0, s_bound=1.0,
        )
        report = compute_gap(inst)
        assert abs(report.delta - 1.0) < 1e-12

    def test_cos45_case(self):
        e = np.eye(3)
        diag = ((e[:, 0] + e[:, 1]) / np.sqrt(2)).reshape(3, 1)
        coll = SubspaceCollection((Basis(e[:, :1]), Basis(diag)))
        inst = ProblemInstance(
            subspaces=coll, theta_star=e[:, 0], true_index=0,
            action_set=e[:1], noise_std=0.0, s_bound=1.0,
        )
        assert abs(compute_gap(inst).delta - 1 / np.sqrt(2)) < 1e-12

    def test_matches_dense_projector_oracle(self):
        inst = generate_instance(24, 2, 12, 0, 120, 1.0, 1.0, rng_for(3))
        report = compute_gap(inst)
        theta = inst.theta_star
        dense = []
        for b in inst.subspaces.bases:
            p = b.columns @ b.columns.T
            p_true = inst.subspaces.bases[0].columns @ inst.subspaces.bases[0].columns.T
            dense.append(np.linalg.norm(p_true @ theta - p @ theta))
        assert np.max(np.abs(report.per_subspace - np.array(dense))) < 1e-12
        assert abs(report.delta - min(dense[1:])) < 1e-12
        assert report.per_subspace[0] == 0.0

    def test_degenerate_raises(self):
        # theta* = 0 is the only zero-gap vector compatible with disjoint subspaces
        e = np.eye(4)
        coll = SubspaceCollection((Basis(e[:, :1]), Basis(e[:, 1:2])))
        inst = ProblemInstance(
            subspaces=coll, theta_star=np.zeros(4), true_index=0,
            action_set=e[:1], noise_std=0.0, s_bound=1.0,
        )
        with pytest.raises(DegenerateInstanceError):
            compute_gap(inst)


def test_resample_actions_keeps_basis_columns():
    inst = small_instance()
    fresh = resample_actions(inst, 7, rng_for(77))
    assert fresh.shape == (7 + inst.K * inst.m, inst.d)
    cols = np.vstack([b.columns.T for b in inst.subspaces.bases])
    assert np.allclose(fresh[-cols.shape[0]:], cols)
    assert not np.allclose(fresh[:7], inst.action_set[:7])
