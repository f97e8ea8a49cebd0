"""Property tests over small random configurations."""

from unittest import mock

import numpy as np
import pytest

from subgoss import policies
from subgoss.environment import generate_instance
from subgoss.linalg import LinUcbStats, ucb_scores
from subgoss.network import complete_graph
from subgoss.policies import (
    PolicyParams,
    run_genie,
    run_oful_baseline,
    run_single_agent_subgoss,
    run_subgoss_multi,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _run(policy, inst, n_agents, params, seed):
    def rng(i):
        return np.random.default_rng([seed, i])

    if policy == "genie":
        return run_genie(inst, params, rng(0), action_key=seed, track_coverage=True)
    if policy == "oful":
        return run_oful_baseline(inst, params, rng(0), action_key=seed)
    if n_agents == 1:
        return run_single_agent_subgoss(inst, params, rng(0), action_key=seed)
    return run_subgoss_multi(
        inst, params, complete_graph(n_agents), [rng(i) for i in range(n_agents)],
        rng(n_agents), action_key=seed,
    )


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(data=st.data())
def test_resampling_the_fixed_set_reproduces_fixed_mode(data):
    """A resample path that always returns the fixed action set must leave every
    trajectory, recommendation and logged event as in fixed-action mode."""
    K = data.draw(st.integers(2, 6), label="K")
    n_agents = data.draw(st.sampled_from([n for n in range(1, K + 1) if K % n == 0]), label="N")
    m = data.draw(st.integers(1, 3), label="m")
    d = 2 * m + data.draw(st.integers(0, 3), label="d - 2m")
    T = data.draw(st.integers(1, 300), label="T")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    policy = data.draw(st.sampled_from(["phased", "genie", "oful"]), label="policy")
    inst = generate_instance(d, m, K, seed % K, 10, 1.0, 1.0, np.random.default_rng(seed))

    fixed = _run(policy, inst, n_agents, PolicyParams(T=T, log_plays=True), seed)
    draws = []

    def fixed_set(instance, n_actions, rng):
        draws.append(1)
        return instance.action_set

    with mock.patch.object(policies, "resample_actions", fixed_set):
        params = PolicyParams(T=T, log_plays=True, resample_actions_per_step=True)
        drawn = _run(policy, inst, n_agents, params, seed)
    assert len(draws) == T
    assert np.array_equal(fixed.inst_regret, drawn.inst_regret)
    assert fixed.recommendations == drawn.recommendations
    assert fixed.events == drawn.events
    assert fixed.coverage_ok == drawn.coverage_ok


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(
    dim=st.integers(1, 6),
    lam=st.floats(0.5, 2.0),
    n_plays=st.integers(0, 200),
    scale=st.floats(0.1, 3.0),
    seed=st.integers(0, 2**16),
)
def test_sherman_morrison_inverse_matches_solve(dim, lam, n_plays, scale, seed):
    """The rank-1-updated inverse, the ridge estimate and the optimistic scores
    agree with np.linalg.inv/solve on the ridge system built from the plays, to 1e-9
    relative."""
    r = np.random.default_rng(seed)
    plays = scale * r.standard_normal((n_plays, dim))
    rewards = r.standard_normal(n_plays)
    stats = LinUcbStats(dim, lam)
    for x, rew in zip(plays, rewards):
        stats.add_play_coords(x, float(rew))
    gram = lam * np.eye(dim) + plays.T @ plays
    actions = scale * r.standard_normal((dim, 3 * dim + 1))

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    th = np.linalg.solve(gram, plays.T @ rewards)
    quad = np.einsum("ij,ij->j", actions, np.linalg.solve(gram, actions))
    assert stats.count == n_plays
    assert close(stats.inv, np.linalg.inv(gram))
    assert close(stats.theta_hat(), th)
    assert close(ucb_scores(stats, actions, 1.3), th @ actions + 1.3 * np.sqrt(quad))
