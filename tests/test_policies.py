"""Agent state machine, phase arithmetic, and the four run loops."""

import dataclasses
import itertools
import math
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgoss import bounds, harness, policies
from subgoss.environment import (
    ProblemInstance,
    SubspaceCollection,
    _sample_unit_sphere,
    generate_instance,
    normal_rows,
    resample_actions,
)
from subgoss.errors import InvalidConfigError, InvariantViolationError, ProtocolError
from subgoss.harness import RunConfig, run_one_seed
from subgoss.linalg import Basis, ExploreStats, LinUcbStats, explore_estimate, ucb_scores
from subgoss.network import complete_graph, sample_neighbor, simulate_rumor_spread
from subgoss.policies import (
    PRODUCER_THREAD,
    PolicyParams,
    RunResult,
    _action_sets,
    _noise,
    detect_freeze,
    end_explore_update,
    explore_budget,
    explore_plan,
    gossip_exchange,
    phase_length,
    run_genie,
    run_oful_baseline,
    run_single_agent_subgoss,
    run_subgoss_multi,
    sticky_sets,
    update_active_set,
)

from conftest import producer_threads


def rng_for(seed):
    return np.random.default_rng(seed)


def toy_instance(m, K, theta_scale=0.9, noise_std=0.0, n_random=5, true_index=0, seed=0):
    """Coordinate-aligned subspaces in R^(K*m+1) for exact noiseless checks."""
    d = K * m + 1
    e = np.eye(d)
    bases = tuple(Basis(e[:, k * m:(k + 1) * m]) for k in range(K))
    theta = np.zeros(d)
    theta[true_index * m] = theta_scale
    r = rng_for(seed)
    randoms = r.standard_normal((n_random, d))
    randoms /= np.linalg.norm(randoms, axis=1, keepdims=True)
    actions = np.vstack([randoms, np.vstack([b.columns.T for b in bases])])
    return ProblemInstance(
        subspaces=SubspaceCollection(bases),
        theta_star=theta,
        true_index=true_index,
        action_set=actions,
        noise_std=noise_std,
        s_bound=1.0,
    )


# ---------------------------------------------------------------------------
# phase arithmetic


def phase_boundaries(b, j):
    """Inclusive (start, end) slots of phase j, from the schedule's phase lengths."""
    start = 1 + sum(phase_length(b, l) for l in range(1, j))
    return start, start + phase_length(b, j) - 1


class TestPhaseBoundaries:
    def test_b2_examples(self):
        assert phase_boundaries(2.0, 1) == (1, 1)
        assert phase_boundaries(2.0, 4) == (8, 15)

    def test_b15_ceiling_arithmetic(self):
        # lengths 1, 2, 3 -> phase 3 spans (4, 6)
        assert phase_boundaries(1.5, 3) == (4, 6)

    def test_geometric_sum_closed_form(self):
        assert phase_boundaries(2.0, 20)[1] == 2**20 - 1

    def test_invalid(self):
        # the phase arithmetic needs a finite b > 1, which the run parameters hold
        for b in (1.0, 0.5, math.nan, math.inf):
            with pytest.raises(InvalidConfigError, match="b must be a number > 1") as got:
                PolicyParams(T=10, b=b)
            with pytest.raises(InvalidConfigError) as want:
                RunConfig(d=6, m=2, K=4, T=10, b=b)
            assert str(got.value) == str(want.value)


class TestPhaseSchedule:
    def test_budgets(self):
        assert explore_budget(2.0, 9, 2, "experimental") == 2 * math.ceil(2 ** 3.5)  # 24
        assert explore_budget(2.0, 9, 2, "theoretical") == 8 * 2 * math.ceil(2 ** 4)

    def test_budget_fits_phase(self):
        # spec'd arithmetic: 3 active subspaces, total 72 <= 256 slots
        assert 3 * explore_budget(2.0, 9, 2, "experimental") == 72 <= phase_length(2.0, 9) == 256

    def test_unknown_mode(self):
        with pytest.raises(InvalidConfigError, match="explore_budget_mode") as got:
            PolicyParams(T=10, explore_budget_mode="x")
        with pytest.raises(InvalidConfigError) as want:
            RunConfig(d=6, m=2, K=4, T=10, explore_budget_mode="x")
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# agent initialization and the active-set machine


def starting_sets(K, N):
    """Each agent's sticky ids, written out: agent i holds i*K/N .. (i+1)*K/N - 1."""
    return [tuple(range(i * K // N, (i + 1) * K // N)) for i in range(N)]


def masks(id_lists, K=12):
    """(lanes, K) bool masks, lane l holding the ids of id_lists[l]."""
    out = np.zeros((len(id_lists), K), dtype=bool)
    for lane, ids in enumerate(id_lists):
        out[lane, list(ids)] = True
    return out


def held(mask):
    """Each lane's held ids of a (lanes, K) mask, ascending."""
    return [tuple(np.flatnonzero(row).tolist()) for row in mask]


class TestInitAgents:
    """Agent initialization: the sticky split of the K subspaces."""

    def test_equal_partition_k12_n3(self):
        sticky = sticky_sets(12, 3)
        assert sticky.shape == (3, 12) and sticky.dtype == bool
        # second agent owns subspaces 4..7 (ids are 0-based)
        assert held(sticky) == starting_sets(12, 3)
        assert held(sticky)[1] == (4, 5, 6, 7)

    def test_singletons_when_k_equals_n(self):
        assert held(sticky_sets(5, 5)) == [(0,), (1,), (2,), (3,), (4,)]

    def test_one_agent_holds_everything(self):
        assert sticky_sets(4, 1).all()

    def test_divisibility(self):
        with pytest.raises(InvalidConfigError):
            sticky_sets(12, 5)


def explore_records(res, inst, agent, phase, b=2.0):
    """(subspace, column) of every explore play of one agent in one phase, in slot order."""
    start, end = phase_boundaries(b, phase)
    steps = slice(start - 1, end)
    rows = res.played[agent, steps][res.explored[agent, steps]]
    n_random = inst.action_set.shape[0] - inst.K * inst.m
    return [divmod(row - n_random, inst.m) for row in rows.tolist()]


@pytest.mark.parametrize("delta, dim, lam, S", [
    (None, 2, 1.0, 1.0), (0.05, 1, 1.0, 1.0), (1e-4, 24, 0.5, 2.0), (0.3, 3, 7.25, 0.1),
])
def test_beta_table_equals_beta_at_every_count(delta, dim, lam, S):
    params = PolicyParams(T=3000, delta=delta, lam=lam)
    want = [bounds.beta(params.delta_value(), dim, lam, n, S) for n in range(params.T)]
    assert np.array_equal(policies._beta_table(params, dim, S), want)


@pytest.mark.parametrize("T", [1, 2, 600, 20_000, 100_000])
def test_beta_table_has_the_bits_of_beta_of_count(T):
    # the table is computed by array operations, with math.log1p mapped over the
    # counts; every radius keeps the bits of the scalar formula
    for dim, lam, S in itertools.product([1, 2, 3, 24], [1.0, 0.5, 3.0, 1e-3], [1.0, 2.5]):
        params = PolicyParams(T=T, lam=lam)
        radius = bounds.beta_of_count(params.delta_value(), dim, lam, S)
        want = np.fromiter(map(radius, range(T)), dtype=float, count=T)
        assert np.array_equal(policies._beta_table(params, dim, S), want), (dim, lam, S)


class TestExplorePlan:
    def test_round_robin_full_budget(self):
        # m=1, budget 2 per subspace, phase long enough -> a,b,a,b
        assert explore_budget(2.0, 4, 1, "experimental") == 2 and phase_length(2.0, 4) == 8
        # every lane has its own count: one id gets half the slots of two
        assert explore_plan(masks([[3, 7], [5], [0, 1, 2]]), 2, 8).tolist() == [4, 2, 6]
        inst = toy_instance(m=1, K=2, noise_std=1.0)
        res = run_single_agent_subgoss(inst, params(15), rng_for(0))
        assert explore_records(res, inst, 0, 4) == [(0, 0), (1, 0), (0, 0), (1, 0)]

    def test_slots_cycle_the_active_set_of_each_phase(self):
        inst = toy_instance(m=2, K=4, noise_std=1.0, seed=2)
        res = run_subgoss_multi(
            inst, params(400), complete_graph(2), multi_rngs(2), rng_for(9)
        )
        holdings = [starting_sets(4, 2)] + res.active_history[:-1]
        assert any(len(active) > 2 for phase in holdings for active in phase)
        for j in range(1, res.n_phases + 1):
            for i in range(2):
                active = holdings[j - 1][i]
                played = [k for k, _ in explore_records(res, inst, i, j)]
                assert played == [active[s % len(active)] for s in range(len(played))]

    def test_short_phase_fills_entirely(self):
        # phase length 3 below the total budget of 4 -> the whole phase explores
        assert phase_length(1.5, 3) == 3 and 2 * explore_budget(1.5, 3, 1, "experimental") == 4
        # a lane within the phase keeps its budget beside one cut to the phase
        assert explore_plan(masks([[3, 7], [4]]), 2, 3).tolist() == [3, 2]
        inst = toy_instance(m=1, K=2, noise_std=1.0)
        res = run_single_agent_subgoss(inst, params(6, b=1.5), rng_for(0))
        assert res.explored[0, 3:6].all()
        phase3 = [k for k, _ in explore_records(res, inst, 0, 3, b=1.5)]
        assert phase3 == [0, 1, 0]

    def test_columns_continue_round_robin_across_phases(self):
        budget = explore_budget(2.0, 4, 2, "experimental")
        assert explore_plan(masks([[5]]), budget, 8).tolist() == [4]
        # phases 1 and 2 are shorter than their budgets: subspace 0 plays column 0
        # in phase 1, so its first play of phase 2 is on column 1
        inst = toy_instance(m=2, K=3, noise_std=1.0)
        res = run_single_agent_subgoss(inst, params(300), rng_for(0))
        assert explore_records(res, inst, 0, 1) == [(0, 0)]
        assert explore_records(res, inst, 0, 2) == [(0, 1), (1, 0)]
        for k in range(3):
            cols = [c for j in range(1, res.n_phases + 1)
                    for kk, c in explore_records(res, inst, 0, j) if kk == k]
            assert len(cols) > 10 and cols == [n % 2 for n in range(len(cols))]

    def test_empty_active_set(self):
        with pytest.raises(InvariantViolationError):
            explore_plan(masks([[0, 1], []]), 1, 1)


def refresh(inst, stats, active_sets):
    """end_explore_update on lanes of one instance, with stats (L, K, m) and one
    ascending active id list per lane; returns (L, K) norms, -inf off the active
    ids, and the best ids."""
    width = max(map(len, active_sets))
    ids = np.array([tuple(a) + tuple(a[-1:]) * (width - len(a)) for a in active_sets])
    lanes = np.arange(len(ids))[:, None]
    bases = np.stack([b.columns for b in inst.subspaces.bases])
    estimated, best = end_explore_update(stats[lanes, ids], bases[ids], ids)
    norms = np.full(stats.count.shape[:2], -np.inf)
    norms[lanes, ids] = estimated
    return norms, best.tolist()


class TestEndExploreUpdate:
    def test_noiseless_norms_and_best(self):
        inst = toy_instance(m=1, K=2)
        stats = ExploreStats((1, 2, 1))
        for k in (0, 1):
            stats.add_play((0, k, 0), float(inst.subspaces.bases[k].columns[:, 0] @ inst.theta_star))
        norms, best = refresh(inst, stats, [[0, 1]])
        assert best == [0]
        assert norms[0, 0] == pytest.approx(0.9)
        assert norms[0, 1] == pytest.approx(0.0)

    def test_relaxed_excludes_unsampled(self):
        inst = toy_instance(m=1, K=3)
        stats = ExploreStats((1, 3, 1))
        stats.add_play((0, 0, 0), 0.9)
        norms, best = refresh(inst, stats, [[0, 1, 2]])
        assert best == [0]
        assert norms[0, 1] == norms[0, 2] == -np.inf

    def test_tie_breaks_lowest_id(self):
        inst = toy_instance(m=1, K=3)
        stats = ExploreStats((1, 3, 1))
        for k in (1, 2):
            stats.add_play((0, k, 0), 0.5)  # identical norms
        assert refresh(inst, stats, [[1, 2]])[1] == [1]

    def test_all_unsampled_falls_back_to_lowest_active_id(self):
        # lane 0 sampled only subspace 0, which it no longer holds: it keeps id 1,
        # its lowest active id, not column 0 of the norm array
        inst = toy_instance(m=1, K=3)
        stats = ExploreStats((2, 3, 1))
        stats.add_play((np.array([0, 1]), np.array([0, 0]), np.array([0, 0])), 0.5)
        norms, best = refresh(inst, stats, [[1, 2], [0, 2]])
        assert best == [1, 0]
        assert np.all(norms[0] == -np.inf)
        assert norms[1, 0] == pytest.approx(0.5) and norms[1, 2] == -np.inf

    def test_matches_log_replay_oracle(self):
        # noisy plays on three lanes; recompute estimates from the raw (column, reward) log
        inst = toy_instance(m=2, K=3)
        r = rng_for(8)
        active_sets = [[0, 2], [1], [0, 1, 2]]
        stats = ExploreStats((3, 3, 2))
        log = {}
        for lane, ids in enumerate(active_sets):
            for k in ids:
                for i in range(6 + lane):
                    col = i % 2
                    rew = float(r.standard_normal())
                    stats.add_play((lane, k, col), rew)
                    log.setdefault((lane, k), []).append((col, rew))
        norms, best = refresh(inst, stats, active_sets)
        for (lane, k), plays in log.items():
            sums = np.zeros(2)
            counts = np.zeros(2)
            for col, rew in plays:
                sums[col] += rew
                counts[col] += 1
            oracle = inst.subspaces.bases[k].columns @ (sums / counts)
            assert norms[lane, k] == pytest.approx(np.linalg.norm(oracle), abs=1e-12)
            # the bits of the per-subspace estimate's norm
            theta = explore_estimate(stats[lane, k], inst.subspaces.bases[k])
            assert norms[lane, k] == float(np.linalg.norm(theta))
        for lane, ids in enumerate(active_sets):
            assert best[lane] == max(ids, key=lambda k: (norms[lane, k], -k))


class TestExploitStep:
    """The exploit rule: argmax of ucb_scores on the best-estimate subspace's coordinates."""

    def test_empty_state_prefers_chosen_subspace(self):
        inst = toy_instance(m=2, K=2, n_random=1)
        basis = inst.subspaces.bases[1]
        # actions: columns of subspace 1 vs orthogonal columns of subspace 0
        actions = np.vstack([
            inst.subspaces.bases[0].columns.T,  # score 0
            basis.columns.T,
        ])
        bval = bounds.beta(0.01, 2, 1.0, 0)
        idx = int(np.argmax(ucb_scores(LinUcbStats(2, 1.0), basis.columns.T @ actions.T, bval)))
        assert idx >= 2

    def test_greedy_limit_with_tiny_beta(self):
        inst = toy_instance(m=1, K=2, n_random=0)
        basis = inst.subspaces.bases[0]
        stats = LinUcbStats(1, 1.0)
        a0 = basis.columns[:, 0]
        for _ in range(10_000):
            stats.add_play_coords(basis.columns.T @ a0, 0.9)
        actions = np.vstack([a0, 0.5 * a0, -a0])
        bval = bounds.beta(0.5, 1, 1.0, stats.count)
        idx = int(np.argmax(ucb_scores(stats, basis.columns.T @ actions.T, bval)))
        assert idx == 0


class TestGossipExchange:
    def test_swap_matrix_deterministic(self):
        # on two agents the complete graph pulls from the other agent
        pulled = gossip_exchange(np.array([[1, 3]]), complete_graph(2), [rng_for(0)])
        assert pulled.tolist() == [[3, 1]]

    def test_each_seed_draws_from_its_own_stream_in_agent_order(self):
        best = np.array([[0, 4, 8, 11], [2, 5, 7, 9]])
        g = complete_graph(4)
        pulled = gossip_exchange(best, g, [rng_for(3), rng_for(4)])
        for s, seed in enumerate((3, 4)):
            stream = rng_for(seed)
            partners = [sample_neighbor(g, i, stream) for i in range(4)]
            assert pulled[s].tolist() == best[s, partners].tolist()

    def test_pull_leaves_sender_untouched(self):
        best = np.array([[1, 3], [0, 2]])
        gossip_exchange(best, complete_graph(2), [rng_for(0), rng_for(1)])
        assert best.tolist() == [[1, 3], [0, 2]]

    def test_size_mismatch(self):
        with pytest.raises(InvalidConfigError):
            gossip_exchange(np.array([[1, 3]]), complete_graph(3), [rng_for(0)])


def accept(active, sticky, pulled, norms=None):
    """update_active_set on lanes given as id lists; returns each lane's held ids.
    `norms` maps a lane to {id: norm}, -inf elsewhere."""
    act, stk = masks(active), masks(sticky)
    nrm = np.full(act.shape, -np.inf)
    for lane, values in (norms or {}).items():
        for k, v in values.items():
            nrm[lane, k] = v
    update_active_set(act, stk, nrm, np.array(pulled))
    return held(act)


class TestUpdateActiveSet:
    def test_case_i_already_active(self):
        assert accept([[0, 1]], [[0, 1]], [1]) == [(0, 1)]

    def test_case_ii_room_to_add(self):
        assert accept([[0, 1, 5]], [[0, 1]], [7]) == [(0, 1, 5, 7)]  # cap is 4

    def test_case_iii_keeps_best_non_sticky(self):
        got = accept([[0, 1, 5, 8]], [[0, 1]], [9], {0: {5: 0.7, 8: 0.2}})
        assert got == [(0, 1, 5, 9)]  # 8 dropped, 5 retained
        got = accept([[0, 1, 5, 8]], [[0, 1]], [9], {0: {5: 0.2, 8: 0.7}})
        assert got == [(0, 1, 8, 9)]

    def test_case_iii_with_unexplored_non_sticky_keeps_lower_id(self):
        # phases too short to reach ids 5 and 8 leave both without an estimate
        got = accept([[0, 1, 5, 8]], [[0, 1]], [9], {0: {0: 0.3, 1: 0.1}})
        assert got == [(0, 1, 5, 9)]

    def test_case_iii_never_keeps_an_unexplored_sticky_id_in_place(self):
        # every id at -inf and a sticky id below both non-sticky ids: the lower
        # non-sticky id is kept, neither the sticky id nor id 0
        got = accept([[0, 3, 6], [2, 3, 6], [0, 1, 5, 8]], [[0], [2], [0, 1]], [9, 9, 9])
        assert got == [(0, 3, 9), (2, 3, 9), (0, 1, 5, 9)]

    def test_lanes_take_all_three_branches_in_one_call(self):
        got = accept(
            [[0, 1, 5, 8], [4, 5], [2, 3, 9], [0, 1, 5, 8], [6, 7, 10, 11]],
            [[0, 1], [4, 5], [2, 3], [0, 1], [6, 7]],
            [8, 0, 11, 3, 1],
            {3: {5: 0.1, 8: 0.9}, 4: {10: 0.4, 11: 0.4}},
        )
        assert got == [
            (0, 1, 5, 8),  # i: already held
            (0, 4, 5),  # ii: room to add
            (2, 3, 9, 11),  # ii: room for the last id
            (0, 1, 3, 8),  # iii: 8 has the larger norm
            (1, 6, 7, 10),  # iii: a tie keeps the lower id
        ]

    def test_out_of_range(self):
        act, stk = masks([[0, 1], [2, 3]]), masks([[0, 1], [2, 3]])
        for bad in (99, -1):
            with pytest.raises(ProtocolError, match=str(bad)):
                update_active_set(act, stk, np.full((2, 12), -np.inf), np.array([4, bad]))
        assert held(act) == [(0, 1), (2, 3)]  # no lane changed

    def test_invariants_enforced(self):
        # sticky id 1 escaped a full lane: three non-sticky ids
        with pytest.raises(InvariantViolationError, match="2 non-sticky"):
            accept([[0, 1], [0, 5, 8, 9]], [[0, 1], [0, 1]], [0, 3])
        # sticky id 3 escaped a lane with room: adding an id leaves it out
        with pytest.raises(InvariantViolationError, match="sticky set escaped"):
            accept([[0, 1], [0, 1, 2]], [[0, 1], [0, 1, 3]], [0, 4])
        # a lane over its cap of 4 pulling an id it holds
        with pytest.raises(InvariantViolationError, match="exceeded its cap"):
            accept([[0, 1], [0, 1, 5, 6, 7]], [[0, 1], [0, 1]], [0, 5])


# ---------------------------------------------------------------------------
# end-to-end run loops


def params(T, **kw):
    return PolicyParams(T=T, **kw)


def multi_rngs(n, base=100):
    return [rng_for(base + i) for i in range(n)]


class TestRunSubgossMulti:
    def test_noiseless_k_equals_n_freezes_once_holding_true(self):
        inst = toy_instance(m=1, K=4, noise_std=0.0)
        res = run_subgoss_multi(
            inst, params(500), complete_graph(4), multi_rngs(4), rng_for(7)
        )
        # once an agent's phase-start active set contains the true id, its
        # recommendation equals the true id from that phase on (noiseless argmax exact)
        holdings = [starting_sets(4, 4)] + res.active_history[:-1]
        for j, (recs, holding) in enumerate(zip(res.recommendations, holdings)):
            if j == 0:
                continue  # phase 1 has a single slot; estimates may be partial
            for i in range(4):
                if inst.true_index in holding[i]:
                    assert recs[i] == inst.true_index
        assert res.freeze_phase is not None

    def test_regret_nonnegative_bounded_and_shapes(self):
        inst = toy_instance(m=1, K=4, noise_std=1.0)
        res = run_subgoss_multi(
            inst, params(300), complete_graph(2), multi_rngs(2), rng_for(3)
        )
        assert res.inst_regret.shape == (2, 300)
        assert np.all(res.inst_regret >= -1e-12)
        assert np.all(res.inst_regret <= 2 * inst.s_bound + 1e-12)
        cum = res.cum_regret()
        assert np.all(np.diff(cum, axis=1) >= -1e-12)
        # a generated Fig-1-size instance whose best action is a basis column:
        # explore plays and vstar read the same values, so no rounding below 0
        for resample in (False, True):
            cfg = RunConfig(d=24, m=2, K=12, N=4, T=2000, master_seed=0,
                            resample_actions_per_step=resample)
            assert run_one_seed(cfg, 9).inst_regret.min() >= 0

    def test_comm_count_matches_completed_phases(self):
        inst = toy_instance(m=1, K=4, noise_std=1.0)
        T = 300
        res = run_subgoss_multi(
            inst, params(T), complete_graph(4), multi_rngs(4), rng_for(5)
        )
        cap = math.ceil(math.log(1 + T * (2.0 - 1.0), 2.0)) + 1
        assert np.all(res.comm_count <= cap)
        completed = sum(1 for j in range(1, 40) if phase_boundaries(2.0, j)[1] <= T)
        assert np.all(res.comm_count == completed)

    def test_budget_accounting_from_play_record(self):
        inst = toy_instance(m=2, K=4, noise_std=1.0, seed=2)
        T = 400
        res = run_subgoss_multi(
            inst,
            params(T),
            complete_graph(2),
            multi_rngs(2),
            rng_for(9),
        )
        holdings = [starting_sets(4, 2)] + res.active_history[:-1]
        for j in range(1, res.n_phases + 1):
            start, end_full = phase_boundaries(2.0, j)
            slots = min(end_full, T) - start + 1
            for i in range(2):
                active = holdings[j - 1][i]
                budget_total = explore_budget(2.0, j, 2, "experimental") * len(active)
                expected_explore = min(slots, min(budget_total, phase_length(2.0, j)))
                explores = res.explored[i, start - 1:start - 1 + slots]
                assert explores.sum() == expected_explore
        # the phases cover the horizon, each step being one play of every agent
        assert res.explored.shape == (2, T)
        last_start = phase_boundaries(2.0, res.n_phases)[0]
        assert last_start <= T < phase_boundaries(2.0, res.n_phases + 1)[0]

    def test_exploit_subspace_matches_recommendation(self):
        # with m = 1 the optimistic score of an action is convex in its one
        # coordinate, so an exploit play in subspace k is an extreme of the action
        # set along k; on the toy subspaces e_k a play in another subspace is not
        inst = toy_instance(m=1, K=4, noise_std=1.0, seed=3)
        T = 300
        res = run_subgoss_multi(
            inst,
            params(T),
            complete_graph(2),
            multi_rngs(2),
            rng_for(11),
        )
        n_exploits = 0
        for j, recs in enumerate(res.recommendations, start=1):
            start, end = phase_boundaries(2.0, j)
            for i, k in enumerate(recs):
                along = inst.action_set[:, k]
                for t in range(start, min(end, T) + 1):
                    if not res.explored[i, t - 1]:
                        assert along[res.played[i, t - 1]] in (along.min(), along.max())
                        n_exploits += 1
        assert n_exploits > T

    def test_holding_true_monotone_after_all_correct(self):
        inst = toy_instance(m=1, K=8, noise_std=1.0, seed=4)
        res = run_subgoss_multi(
            inst, params(2000), complete_graph(4), multi_rngs(4), rng_for(13)
        )
        if res.freeze_phase is None:
            pytest.skip("no freeze at this seed")
        holders = [
            {i for i, act in enumerate(sets) if inst.true_index in act}
            for sets in res.active_history
        ]
        for a, b in zip(holders[res.freeze_phase - 1:], holders[res.freeze_phase:]):
            assert a <= b


class TestDetectFreeze:
    def test_basic(self):
        assert detect_freeze([[0, 1], [0, 0], [0, 0]], 0) == 2
        assert detect_freeze([[0], [1]], 0) is None
        assert detect_freeze([], 0) is None
        assert detect_freeze([[2, 2]], 2) == 1


class TestRunSingleAgent:
    def test_noiseless_true_from_start(self):
        inst = toy_instance(m=1, K=3, noise_std=0.0, true_index=0)
        res = run_single_agent_subgoss(inst, params(200), rng_for(0))
        # phase 1 explores only subspace 0 (one slot); afterwards the true
        # subspace always wins the noiseless norm argmax
        assert all(r[0] == 0 for r in res.recommendations)
        assert res.freeze_phase == 1

    def test_no_communication(self):
        inst = toy_instance(m=1, K=4, noise_std=1.0)
        res = run_single_agent_subgoss(inst, params(300), rng_for(1))
        assert res.comm_count.tolist() == [0]
        assert res.n_agents == 1

    def test_explores_all_subspaces(self):
        inst = toy_instance(m=1, K=4, noise_std=1.0)
        res = run_single_agent_subgoss(inst, params(300), rng_for(2))
        n_random = inst.action_set.shape[0] - inst.K * inst.m
        explored = set(((res.played[res.explored] - n_random) // inst.m).tolist())
        assert explored == {0, 1, 2, 3}

    def test_action_set_without_basis_columns_rejected(self):
        # explore plays read their value from the basis-column rows of the action set
        inst = toy_instance(m=1, K=3, noise_std=0.0)
        cut = ProblemInstance(
            subspaces=inst.subspaces, theta_star=inst.theta_star, true_index=0,
            action_set=inst.action_set[:-1], noise_std=0.0, s_bound=1.0,
        )
        with pytest.raises(InvalidConfigError):
            run_single_agent_subgoss(cut, params(50), rng_for(0))
        assert run_genie(cut, params(50), rng_for(0)).inst_regret.shape == (1, 50)


class TestRunGenie:
    def test_noiseless_regret_flattens(self):
        # optimism keeps probing the zero-reward directions for ~(beta/gap)^2
        # plays, so the curve flattens quickly but not instantly
        inst = toy_instance(m=2, K=3, noise_std=0.0, seed=5)
        res = run_genie(inst, params(300), rng_for(0))
        cum = res.cum_regret()[0]
        increments = np.diff(cum[::100])
        assert all(b <= a for a, b in zip(increments, increments[1:]))
        assert cum[-1] - cum[-101] <= 0.25 * cum[99]

    def test_noiseless_m1_flat_from_start(self):
        # one shared coordinate: the best action dominates every score from t=1
        inst = toy_instance(m=1, K=3, noise_std=0.0)
        res = run_genie(inst, params(100), rng_for(0))
        assert res.cum_regret()[0, -1] == 0.0

    def test_single_step_regret_bounded(self):
        inst = toy_instance(m=2, K=3, noise_std=1.0)
        res = run_genie(inst, params(1), rng_for(0))
        assert 0 <= res.inst_regret[0, 0] <= 2 * inst.s_bound

    def test_coverage_flag(self):
        inst = toy_instance(m=2, K=3, noise_std=1.0)
        res = run_genie(inst, params(200, delta=0.05), rng_for(3), track_coverage=True)
        assert res.coverage_ok in (True, False)
        res2 = run_genie(inst, params(200, delta=0.05), rng_for(3))
        assert res2.coverage_ok is None


class TestRunOful:
    def test_regret_valid(self):
        inst = toy_instance(m=1, K=3, noise_std=1.0)
        res = run_oful_baseline(inst, params(200), rng_for(0))
        assert np.all(res.inst_regret >= -1e-12)
        assert np.all(res.inst_regret <= 2 * inst.s_bound + 1e-12)

    def test_noiseless_converges(self):
        inst = toy_instance(m=1, K=3, noise_std=0.0)
        res = run_oful_baseline(inst, params(1500), rng_for(0))
        cum = res.cum_regret()[0]
        # late-window regret rate far below the early rate
        assert cum[-1] - cum[-101] <= 0.1 * cum[99] + 1e-9


def test_resample_actions_mode_runs_and_is_deterministic():
    inst = toy_instance(m=2, K=2, noise_std=1.0)
    p = params(60, resample_actions_per_step=True)
    a = run_genie(inst, p, rng_for(4), action_rng=rng_for(77))
    b = run_genie(inst, p, rng_for(4), action_rng=rng_for(77))
    c = run_genie(inst, p, rng_for(4), action_rng=rng_for(78))
    assert np.array_equal(a.inst_regret, b.inst_regret)
    assert not np.array_equal(a.inst_regret, c.inst_regret)


def reference_linucb(instance, params, noise_rng, action_rng, genie, track_coverage=False):
    """Hand-written genie and oful loops: the reference run_genie and run_oful_baseline
    must match bit for bit."""
    T, delta, lam, S = params.T, params.delta_value(), params.lam, instance.s_bound
    sets = _action_sets([instance], params, [action_rng])
    nz = _noise([instance], 1, T, [[noise_rng]])[:, 0]
    dim = instance.m if genie else instance.d
    basis = instance.subspaces.bases[instance.true_index]
    theta_m = basis.columns.T @ instance.theta_star
    gram, moment, count = lam * np.eye(dim), np.zeros(dim), 0
    inst_regret = np.zeros((1, T))
    covered = True
    for t in range(1, T + 1):
        actions, values, vstar = (view[0] for view in next(sets))
        X = basis.columns.T @ actions.T if genie else actions.T
        bval = bounds.beta(delta, dim, lam, count, S)
        th = np.linalg.solve(gram, moment)
        if track_coverage:
            diff = th - theta_m
            if math.sqrt(float(diff @ gram @ diff)) > bval:
                covered = False
        y = np.linalg.solve(gram, X)
        quad = np.einsum("ij,ij->j", X, y)
        scores = th @ X + bval * np.sqrt(np.maximum(quad, 0.0))
        idx = int(np.argmax(scores))
        a = X[:, idx]
        r = float(values[idx]) + nz[t]
        gram += np.outer(a, a)
        moment += r * a
        count += 1
        inst_regret[0, t - 1] = vstar - values[idx]
    return inst_regret, covered


def test_genie_and_oful_match_hand_written_loops():
    # a small instance, and a Fig-1-size one (d=24, m=2, K=12, 120 random actions)
    # long enough that drift of the kept inverse could flip an action choice
    cases = [
        (generate_instance(8, 2, 4, 1, 40, 1.0, 1.0, rng_for(21)), 300),
        (generate_instance(24, 2, 12, 3, 120, 1.0, 1.0, rng_for(22)), 2000),
    ]
    for inst, T in cases:
        for resample in (False, True):
            p = params(T, resample_actions_per_step=resample, delta=0.05)
            want, want_cov = reference_linucb(
                inst, p, rng_for(5), rng_for(33), genie=True, track_coverage=True
            )
            got = run_genie(inst, p, rng_for(5), action_rng=rng_for(33), track_coverage=True)
            assert np.array_equal(got.inst_regret, want)
            assert got.coverage_ok == want_cov
            want, _ = reference_linucb(inst, p, rng_for(6), rng_for(34), genie=False)
            got = run_oful_baseline(inst, p, rng_for(6), action_rng=rng_for(34))
            assert np.array_equal(got.inst_regret, want)


def step_by_step_inverse_exploit(stats, t, steps, cand, values, noise, beta, played):
    """The reference for `policies._inverse_exploit`: each step scores the kept terms
    (`LinUcbStats.scores`) and records one play of every lane (`add_play_coords`)."""
    lanes = np.arange(len(cand))
    for step in range(t, t + steps):
        pick = stats.scores(beta[stats.count]).argmax(axis=1)
        idx = cand[lanes, pick]
        stats.add_play_coords(pick, values[lanes, idx] + noise[step])
        played[:, step - 1] = idx


@pytest.mark.parametrize("m,n,lanes", [(3, 10, 1), (3, 7, 3), (6, 30, 2), (24, 144, 2)])
def test_inverse_exploit_keeps_the_bits_of_one_play_at_a_time(m, n, lanes):
    """After 600 steps, every kept array of the statistics, and every played row, of
    the in-place loop equal those of `scores` and `add_play_coords` one play at a
    time, bit for bit; the lanes start at different play counts, so each scores
    under its own radius."""
    r = rng_for(m * n + lanes)
    n_actions, T = n + 5, 600
    cand = np.stack([r.permutation(n_actions)[:n] for _ in range(lanes)])
    values = r.standard_normal((lanes, n_actions))
    noise = r.standard_normal((T + 1, lanes))
    beta = r.uniform(0.5, 3.0, 2 * T)
    stats = LinUcbStats(m, 1.0, (lanes,), r.standard_normal((lanes, m, n)))
    stats.add_play_coords(r.integers(0, n, lanes), r.standard_normal(lanes))
    stats.count[:] = r.integers(0, T, lanes)
    twin = LinUcbStats(m, 1.0, (lanes,), stats.block)
    twin.copy_lanes(slice(None), stats, slice(None))
    played, want = np.zeros((lanes, T), dtype=int), np.zeros((lanes, T), dtype=int)
    with mock.patch.object(policies, "_EXPLORE_CHUNK", 7 * lanes):  # spans of 7 steps
        policies._inverse_exploit(stats, 1, T, cand, values, noise, beta, played)
    step_by_step_inverse_exploit(twin, 1, T, cand, values, noise, beta, want)
    assert np.array_equal(played, want)
    for name in LinUcbStats._ARRAYS:
        assert np.array_equal(getattr(stats, name), getattr(twin, name)), name


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_inverse_exploit_plays_as_one_play_at_a_time(data):
    """The in-place exploit loop of statistics that keep V^-1 apart gives every field
    of every result of `harness.run` bit for bit as `scores` and `add_play_coords`
    stepped one play at a time do: oful at d = 6 and 12, and genie, multi and single
    at m = 3, noiseless and noisy rewards, the default action set and a single
    random row."""
    policy = data.draw(st.sampled_from(["oful", "genie", "subgoss_multi", "subgoss_single"]),
                       label="policy")
    m, K = 3, data.draw(st.sampled_from([2, 4, 6]), label="K")
    d = data.draw(st.sampled_from([6, 12]) if policy == "oful"
                  else st.integers(2 * m, 2 * m + 3), label="d")
    config = RunConfig(
        d=d, m=m, K=K,
        N=data.draw(st.sampled_from([2, K]), label="N") if policy == "subgoss_multi" else 1,
        policy=policy,
        # about half the runs long, where a rounding change has time to flip a pick
        T=data.draw(st.integers(1, 2000) | st.integers(1000, 2000), label="T"),
        n_seeds=data.draw(st.integers(1, 3), label="n_seeds"),
        master_seed=data.draw(st.integers(0, 2**16), label="master_seed"),
        noise_std=data.draw(st.sampled_from([0.0, 1.0]), label="noise_std"),
        n_extra_actions=data.draw(st.sampled_from([None, 1]), label="n_extra_actions"),
    )
    in_place = harness.run(config)
    calls = []

    def reference(*args):
        calls.append(1)
        step_by_step_inverse_exploit(*args)

    with mock.patch.object(policies, "_inverse_exploit", reference):
        stepped = harness.run(config)
    assert calls or policy.startswith("subgoss")  # a phased run may never exploit
    for got, want in zip(in_place, stepped, strict=True):
        for field in dataclasses.fields(RunResult):
            a, b = getattr(got, field.name), getattr(want, field.name)
            same = np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            assert same, field.name


def reference_refresh(active, explore, bases):
    """One agent's explore refresh, subspace by subspace: the reference for the
    batched end_explore_update. Returns the norms of the active ids with an
    explore sample, and the best-estimate id."""
    norms, best = {}, None
    for k in sorted(active):
        stats = explore.get(k)
        if stats is None or stats.total_count == 0:
            continue
        norms[k] = float(np.linalg.norm(explore_estimate(stats, bases[k])))
        if best is None or norms[k] > norms[best]:  # ties keep the lower id
            best = k
    return norms, min(active) if best is None else best


def reference_accept(active, sticky, norms, k):
    """One agent's active set after it pulls id k, as a new set: k is added while
    there is room for it, and a full set keeps the sticky ids, the non-sticky id
    of larger norm (missing from `norms`: never explored, below any norm; a tie
    keeps the lower id) and k."""
    if k in active:
        return set(active)
    if len(active) < len(sticky) + 2:
        return active | {k}
    low, high = sorted(active - sticky)
    kept = high if norms.get(high, -math.inf) > norms.get(low, -math.inf) else low
    return sticky | {kept, k}


def reference_subgoss(instance, params, gossip, noise_rngs, gossip_rng, action_rng):
    """Hand-written phased loop, one seed at a time, agents in lockstep with per-agent
    statistics objects and Python sets: the reference for the lane engine behind
    the phased runners. Returns (inst_regret, explored, played, recommendations,
    active_history)."""
    K, m, T = instance.K, instance.m, params.T
    delta, lam, S = params.delta_value(), params.lam, instance.s_bound
    bases = instance.subspaces.bases
    n_agents = gossip.n_agents if gossip else 1
    sticky = [set(ids) for ids in starting_sets(K, n_agents)]
    active = [set(ids) for ids in sticky]
    norms = [{} for _ in range(n_agents)]
    best = [None] * n_agents
    explore = [{} for _ in range(n_agents)]
    linucb = [{} for _ in range(n_agents)]
    n_random = instance.action_set.shape[0] - K * m
    sets = _action_sets([instance], params, [action_rng])
    noise = _noise([instance], n_agents, T, [noise_rngs]).T
    inst_regret = np.zeros((n_agents, T))
    explored = np.zeros((n_agents, T), dtype=bool)
    played = np.zeros((n_agents, T), dtype=int)
    recommendations, active_history = [], []
    j, start = 1, 1
    while start <= T:
        length = phase_length(params.b, j)
        budget = explore_budget(params.b, j, m, params.explore_budget_mode)
        end_full = start + length - 1
        slots = min(end_full, T) - start + 1
        order = [sorted(a) for a in active]
        n_exp = [min(budget * len(ids), length, slots) for ids in order]
        for s in range(slots):
            t = start + s
            actions, values, vstar = (view[0] for view in next(sets))
            for i in range(n_agents):
                if s < n_exp[i]:
                    k = order[i][s % len(order[i])]
                    stats = explore[i].setdefault(k, ExploreStats(m))
                    col = stats.next_column()
                    row = n_random + k * m + col
                    a_val = float(values[row])
                    stats.add_play(col, a_val + noise[i][t])
                    inst_regret[i, t - 1] = vstar - a_val
                    explored[i, t - 1] = True
                    played[i, t - 1] = row
                    continue
                if s == n_exp[i]:
                    norms[i], best[i] = reference_refresh(active[i], explore[i], bases)
                k = best[i]
                coords = bases[k].columns.T @ actions.T
                stats = linucb[i].setdefault(k, LinUcbStats(m, lam))
                bval = bounds.beta(delta, m, lam, stats.count, S)
                idx = int(ucb_scores(stats, coords, bval).argmax())
                r = float(values[idx]) + noise[i][t]
                stats.add_play_coords(coords[:, idx], r)
                inst_regret[i, t - 1] = vstar - values[idx]
                played[i, t - 1] = idx
        for i in range(n_agents):
            if n_exp[i] == slots:
                norms[i], best[i] = reference_refresh(active[i], explore[i], bases)
        recommendations.append(list(best))
        if end_full <= T and n_agents > 1:
            # every agent pulls from its sampled partner's phase-end best id
            pulled = [best[sample_neighbor(gossip, i, gossip_rng)] for i in range(n_agents)]
            active = [reference_accept(active[i], sticky[i], norms[i], pulled[i])
                      for i in range(n_agents)]
        active_history.append([tuple(sorted(a)) for a in active])
        j += 1
        start = end_full + 1
    return inst_regret, explored, played, recommendations, active_history


@pytest.mark.parametrize("resample", [False, True], ids=["fixed", "resampled"])
@pytest.mark.parametrize(
    "shape",
    [
        dict(d=8, m=2, K=4, N=2, T=300, policy="subgoss_multi"),
        # one sticky id per agent: an agent whose active set grows to three ids can
        # explore a whole phase after exploiting in the one before
        dict(d=6, m=2, K=4, N=4, T=267, b=3.0, policy="subgoss_multi", master_seed=840),
        dict(d=6, m=2, K=5, N=5, T=388, policy="subgoss_multi", master_seed=729),
        dict(d=6, m=1, K=3, N=1, T=200, b=1.5, policy="subgoss_single"),
        # one random row: a Fortran-ordered action set, whose products differ in
        # their bits from those of a C-ordered one
        dict(d=6, m=1, K=4, N=2, T=300, policy="subgoss_multi", n_extra_actions=1),
        dict(d=8, m=2, K=4, N=2, T=300, policy="subgoss_multi", n_extra_actions=1),
        dict(d=6, m=1, K=3, N=1, T=200, b=1.5, policy="subgoss_single", n_extra_actions=1),
    ],
    ids=["multi2", "multi4-k-equals-n", "multi5-k-equals-n", "single",
         "multi-m1-one-random-row", "multi-m2-one-random-row", "single-one-random-row"],
)
def test_phased_runs_match_hand_written_loop(shape, resample):
    """Each seed of a batched harness.run equals the reference loop on that seed's
    instance and streams: trajectories, plays, recommendations and active sets. The
    reference exploits its recommended subspace, so equal plays check that the
    engine does too."""
    assert_matches_hand_written_loop(shape, resample)


@pytest.mark.parametrize("resample", [False, True], ids=["fixed", "resampled"])
@pytest.mark.parametrize("shape", [
    dict(d=8, m=2, K=4, N=2, T=300, policy="subgoss_multi"),
    dict(d=6, m=1, K=3, N=1, T=200, policy="subgoss_single", explore_budget_mode="theoretical"),
], ids=["multi2", "single-theoretical"])
def test_explore_tables_in_small_chunks_match_hand_written_loop(shape, resample, monkeypatch):
    # phases whose explore slots span many chunks of the engine's explore tables
    monkeypatch.setattr(policies, "_EXPLORE_CHUNK", 3)
    assert_matches_hand_written_loop(shape, resample)


def assert_matches_hand_written_loop(shape, resample):
    config = RunConfig(n_seeds=3, resample_actions_per_step=resample, **shape)
    params = config.policy_params()
    results = harness.run(config)
    gossip = harness.build_gossip(config)
    for s, res in enumerate(results):
        ms = config.master_seed
        want = reference_subgoss(
            harness._instance(config, s), params, gossip,
            [harness._rng(ms, s, harness._ROLE_NOISE, i) for i in range(config.N)],
            harness._rng(ms, s, harness._ROLE_GOSSIP), harness._rng(ms, s, harness._ROLE_ACTIONS),
        )
        assert np.array_equal(res.inst_regret, want[0])
        assert np.array_equal(res.explored, want[1])
        assert np.array_equal(res.played, want[2])
        assert (res.recommendations, res.active_history) == want[3:]


def run_policy(policy, inst, p, action_rng):
    """One run of a named policy variant, with fixed noise and gossip streams."""
    if policy.startswith("multi"):
        n = int(policy[-1])
        return run_subgoss_multi(
            inst, p, complete_graph(n), multi_rngs(n), rng_for(9), action_rng=action_rng
        )
    if policy == "single":
        return run_single_agent_subgoss(inst, p, rng_for(1), action_rng=action_rng)
    if policy == "genie":
        return run_genie(inst, p, rng_for(2), action_rng=action_rng, track_coverage=True)
    return run_oful_baseline(inst, p, rng_for(3), action_rng=action_rng)


@pytest.mark.parametrize("policy", ["multi4", "multi2", "single", "genie", "oful"])
def test_resampled_action_set_drawn_once_per_step(policy, monkeypatch):
    # the producer draws T steps of the stream, no more: in one chunk, and in
    # chunks of 7 steps with a clipped last one, the stream is left where T
    # successive draws leave it
    inst = toy_instance(m=2, K=4, noise_std=1.0)
    n_random = inst.action_set.shape[0] - inst.K * inst.m
    T = 150
    drawn = []

    def counting(rng, out):
        drawn.append(out.shape[0])
        return normal_rows(rng, out)

    monkeypatch.setattr(policies, "normal_rows", counting)
    for width in (T, 7):
        monkeypatch.setattr(policies, "_DRAW_CHUNK", width * n_random * inst.d)
        drawn.clear()
        stream = rng_for(5)
        run_policy(policy, inst, params(T, resample_actions_per_step=True), stream)
        clipped = [T % width] if T % width else []
        assert drawn == [width] * (T // width) + clipped
        replay = rng_for(5)
        for _ in range(T):
            resample_actions(inst, n_random, replay)
        assert stream.bit_generator.state == replay.bit_generator.state


@pytest.mark.parametrize("policy", ["multi4", "multi2", "single"])
def test_every_agent_plays_from_the_set_keyed_by_step(policy):
    # basis-column rows are the same in every set; with many random rows in a
    # small ambient space, exploits often play a random row, which tells sets apart
    inst = generate_instance(4, 2, 4, 2, 200, 0.0, 1.0, rng_for(12))
    n_random = inst.action_set.shape[0] - inst.K * inst.m
    T = 200
    p = params(T, resample_actions_per_step=True)
    res = run_policy(policy, inst, p, rng_for(41))
    assert (res.played[~res.explored] < n_random).any()
    # replay the stream: step t's set is its t-th draw, and each play is charged
    # the regret of its row in that set, bit for bit
    stream = rng_for(41)
    values = np.stack([resample_actions(inst, n_random, stream) @ inst.theta_star
                       for _ in range(T)])
    charged = values.max(axis=1) - values[np.arange(T), res.played]
    assert np.array_equal(res.inst_regret, charged)


class TestEnvView:
    """The action sets the engines play from (`_action_sets`): step t's resampled set
    is the t-th draw of its seed's action stream."""

    def test_resampling_needs_a_stream(self):
        inst = toy_instance(m=2, K=2, noise_std=1.0)
        p = params(10, resample_actions_per_step=True)
        with pytest.raises(InvalidConfigError, match="action stream"):
            _action_sets([inst, inst], p, [rng_for(0), None])
        # each public runner fails before it draws from its noise or gossip stream
        noise, partners = rng_for(1), rng_for(2)
        states = [noise.bit_generator.state, partners.bit_generator.state]
        for run in (lambda: run_subgoss_multi(inst, p, complete_graph(2), [noise] * 2, partners),
                    lambda: run_single_agent_subgoss(inst, p, noise),
                    lambda: run_genie(inst, p, noise),
                    lambda: run_oful_baseline(inst, p, noise)):
            with pytest.raises(InvalidConfigError, match="action stream"):
                run()
            assert [noise.bit_generator.state, partners.bit_generator.state] == states

    def test_sets_are_successive_draws(self, monkeypatch):
        # two seeds of a batch, each drawing from its own stream, W steps at a time;
        # T = 5 sets and no more
        insts = [toy_instance(m=2, K=2, seed=0), toy_instance(m=2, K=2, seed=1)]
        n_random = insts[0].action_set.shape[0] - 4
        for width in (1, 2, 5):
            monkeypatch.setattr(policies, "_DRAW_CHUNK", width * 2 * n_random * insts[0].d)
            sets = _action_sets(insts, params(5, resample_actions_per_step=True),
                                [rng_for(8), rng_for(9)])
            streams = [rng_for(8), rng_for(9)]
            for _ in range(5):
                actions, values, vstar = next(sets)
                for seed, (inst, stream) in enumerate(zip(insts, streams)):
                    want = resample_actions(inst, n_random, stream)
                    assert np.array_equal(actions[seed], want)
                    assert np.array_equal(values[seed], want @ inst.theta_star)
                    assert vstar[seed] == values[seed].max()
            with pytest.raises(StopIteration):
                next(sets)

    @staticmethod
    def assert_chunked_draws(insts, width, monkeypatch):
        """Sets drawn `width` steps at a time (None: the width `_DRAW_CHUNK` gives),
        over T = 2W + 1 steps so that the last chunk is clipped, are bit for bit the
        sets of per-step draws, values and memory layout alike: one random row
        gives a Fortran-ordered set where m > 1, as `basis_columns` is Fortran-ordered
        there, and a C-ordered one otherwise."""
        first = insts[0]
        n_random = first.action_set.shape[0] - first.K * first.m
        per_step = len(insts) * n_random * first.d
        if width:
            monkeypatch.setattr(policies, "_DRAW_CHUNK", width * per_step)
        else:
            width = max(1, policies._DRAW_CHUNK // per_step)
        T = 2 * width + 1
        sets = _action_sets(insts, params(T, resample_actions_per_step=True),
                            [rng_for(8 + s) for s in range(len(insts))])
        streams = [rng_for(8 + s) for s in range(len(insts))]
        for actions, values, vstar in sets:
            for seed, (inst, stream) in enumerate(zip(insts, streams)):
                rows = _sample_unit_sphere(n_random, first.d, stream)
                want = np.concatenate([rows, inst.subspaces.basis_columns])
                assert np.array_equal(actions[seed], want)
                assert actions[seed].strides == want.strides
                assert actions[seed].flags.f_contiguous == (n_random == 1 and first.m > 1)
                assert np.array_equal(values[seed], want @ inst.theta_star)
                assert vstar[seed] == values[seed].max()
            T -= 1
        assert T == 0

    @pytest.mark.parametrize("width", [1, 3, None])
    @pytest.mark.parametrize("n_random", [1, 120])
    def test_chunked_draws_are_the_per_step_draws(self, n_random, width, monkeypatch):
        """Two seeds of the Fig-1 shape, with one random row or 5d of them."""
        insts = [generate_instance(24, 2, 12, 0, n_random, 1.0, 1.0, rng_for(s)) for s in (3, 4)]
        self.assert_chunked_draws(insts, width, monkeypatch)

    @pytest.mark.parametrize("width", [1, 3, None])
    @pytest.mark.parametrize("extra", [1, 5])
    @pytest.mark.parametrize("d, m", [(6, 1), (12, 3)])
    def test_chunked_draws_of_the_m1_and_m3_shapes(self, d, m, extra, width, monkeypatch):
        """Three seeds of the m = 1 and m = 3 shapes of `tools/run_digest.py` (K = 4),
        with one random row or 5d of them."""
        n_random = 1 if extra == 1 else extra * d
        insts = [generate_instance(d, m, 4, s % 4, n_random, 1.0, 1.0, rng_for(s))
                 for s in (3, 4, 5)]
        self.assert_chunked_draws(insts, width, monkeypatch)

    @pytest.mark.parametrize("n_random", [1, 120])
    def test_chunked_draws_of_thirty_seeds(self, n_random, monkeypatch):
        """A batch of 30 Fig-1 seeds: with 5d random rows a chunk is one step, W = 1."""
        insts = [generate_instance(24, 2, 12, s % 12, n_random, 1.0, 1.0, rng_for(s))
                 for s in range(30)]
        if n_random == 120:
            assert policies._DRAW_CHUNK // (30 * n_random * 24) == 0
        self.assert_chunked_draws(insts, None, monkeypatch)

    @pytest.mark.parametrize("n_random", [1, 120])
    def test_every_set_ends_with_its_seeds_basis_columns(self, n_random, monkeypatch):
        # the basis rows of the set buffer are written once per call, and every
        # chunk's normalized rows stop short of them: a run of 5 chunks of 3 steps
        # ends each set of each step with its own seed's basis columns
        insts = [generate_instance(24, 2, 12, 0, n_random, 1.0, 1.0, rng_for(s)) for s in (3, 4)]
        monkeypatch.setattr(policies, "_DRAW_CHUNK", 3 * 2 * n_random * 24)
        tails = np.stack([inst.subspaces.basis_columns for inst in insts])
        steps = 0
        for actions, _, _ in _action_sets(insts, params(15, resample_actions_per_step=True),
                                          [rng_for(8), rng_for(9)]):
            assert np.array_equal(actions[:, n_random:], tails)
            assert not np.array_equal(actions[0, :n_random], actions[1, :n_random])
            steps += 1
        assert steps == 15

    @pytest.mark.parametrize("policy", ["multi4", "multi2", "single", "genie", "oful"])
    def test_fixed_mode_ignores_the_stream(self, policy):
        inst = toy_instance(m=2, K=4, noise_std=1.0)
        p = params(150)
        a = run_policy(policy, inst, p, None)
        b = run_policy(policy, inst, p, rng_for(5))
        assert np.array_equal(a.inst_regret, b.inst_regret)
        assert a.recommendations == b.recommendations
        assert a.active_history == b.active_history
        assert np.array_equal(a.explored, b.explored)
        assert np.array_equal(a.played, b.played)
        assert a.coverage_ok == b.coverage_ok


class TestProducerThread:
    """The helper thread that draws resampled sets ahead: it makes every draw, ends
    with its engine however the engine ends, and hands its own error to it."""

    @staticmethod
    def small_chunks(monkeypatch, inst, width=4):
        n_random = inst.action_set.shape[0] - inst.K * inst.m
        monkeypatch.setattr(policies, "_DRAW_CHUNK", width * n_random * inst.d)

    @pytest.mark.parametrize("policy", ["multi4", "single", "genie", "oful"])
    def test_draws_on_the_helper_thread(self, policy, monkeypatch):
        # made by the helper thread or, on a chunk it has not drawn yet, by the
        # engine's thread
        threads = set()

        def recording(rng, out):
            threads.add(threading.current_thread().name)
            return normal_rows(rng, out)

        monkeypatch.setattr(policies, "normal_rows", recording)
        inst = toy_instance(m=2, K=4, noise_std=1.0)
        self.small_chunks(monkeypatch, inst)
        run_policy(policy, inst, params(100, resample_actions_per_step=True), rng_for(5))
        assert PRODUCER_THREAD in threads
        assert threads <= {PRODUCER_THREAD, threading.main_thread().name}
        assert not producer_threads()

    def test_the_bits_do_not_depend_on_which_thread_draws(self, monkeypatch):
        # a helper thread slowed down leaves the late seeds of each chunk to the
        # engine's thread; the sets stay the per-step draws of each stream
        threads = set()

        def slow(rng, out):
            if threading.current_thread().name == PRODUCER_THREAD:
                time.sleep(0.002)
            threads.add(threading.current_thread().name)
            return normal_rows(rng, out)

        monkeypatch.setattr(policies, "normal_rows", slow)
        insts = [toy_instance(m=2, K=2, seed=s) for s in range(4)]
        n_random = insts[0].action_set.shape[0] - 4
        monkeypatch.setattr(policies, "_DRAW_CHUNK", 2 * 4 * n_random * insts[0].d)
        drawn = [rng_for(s) for s in range(4)]
        sets = _action_sets(insts, params(9, resample_actions_per_step=True), drawn)
        streams = [rng_for(s) for s in range(4)]
        for actions, _, _ in sets:
            for seed, (inst, stream) in enumerate(zip(insts, streams)):
                assert np.array_equal(actions[seed], resample_actions(inst, n_random, stream))
        assert threads == {PRODUCER_THREAD, threading.main_thread().name}
        assert ([r.bit_generator.state for r in drawn]
                == [r.bit_generator.state for r in streams])

    def test_claims_hold_under_a_short_switch_interval(self, monkeypatch):
        # the two threads claim the seeds of each one-step chunk against each other
        # while the interpreter switches between them as often as it can: every
        # set is still its stream's per-step draw, and each stream is drawn T times
        insts = [toy_instance(m=2, K=2, seed=s) for s in range(8)]
        n_random = insts[0].action_set.shape[0] - 4
        monkeypatch.setattr(policies, "_DRAW_CHUNK", 8 * n_random * insts[0].d)
        drawn = [rng_for(s) for s in range(8)]
        streams = [rng_for(s) for s in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for actions, _, _ in _action_sets(
                    insts, params(60, resample_actions_per_step=True), drawn):
                for seed, (inst, stream) in enumerate(zip(insts, streams)):
                    want = resample_actions(inst, n_random, stream)
                    assert np.array_equal(actions[seed], want)
        finally:
            sys.setswitchinterval(interval)
        assert ([r.bit_generator.state for r in drawn]
                == [r.bit_generator.state for r in streams])

    def test_an_error_of_the_producer_is_raised_at_the_first_undrawn_step(self, monkeypatch):
        # the second chunk fails: the three steps of the first are served, then the
        # error, of its own type, and the thread is gone
        calls = []

        def failing(rng, out):
            calls.append(out.shape[0])
            if len(calls) == 2:
                raise MemoryError("no room for the sets")
            return normal_rows(rng, out)

        monkeypatch.setattr(policies, "normal_rows", failing)
        inst = toy_instance(m=2, K=2)
        self.small_chunks(monkeypatch, inst, width=3)
        sets = _action_sets([inst], params(10, resample_actions_per_step=True), [rng_for(8)])
        for _ in range(3):
            next(sets)
        with pytest.raises(MemoryError, match="no room for the sets"):
            next(sets)
        assert calls == [3, 3]
        assert not producer_threads()

    @pytest.mark.parametrize("policy", ["multi4", "single", "genie", "oful"])
    def test_an_error_of_the_producer_ends_the_run(self, policy, monkeypatch):
        def failing(rng, out):
            raise ZeroDivisionError("draw failed")

        monkeypatch.setattr(policies, "normal_rows", failing)
        inst = toy_instance(m=2, K=4, noise_std=1.0)
        with pytest.raises(ZeroDivisionError, match="draw failed"):
            run_policy(policy, inst, params(100, resample_actions_per_step=True), rng_for(5))
        assert not producer_threads()

    @pytest.mark.parametrize("policy", ["multi4", "single", "genie", "oful"])
    def test_keyboard_interrupt_in_the_main_loop_leaves_no_thread(self, policy, monkeypatch):
        # interrupted at an exploit step's scores, with the producer drawing ahead
        calls = []

        def interrupted(*args):
            calls.append(1)
            if len(calls) == 5:
                raise KeyboardInterrupt
            return ucb_scores(*args)

        monkeypatch.setattr(policies, "ucb_scores", interrupted)
        inst = toy_instance(m=2, K=4, noise_std=1.0)
        self.small_chunks(monkeypatch, inst)
        with pytest.raises(KeyboardInterrupt):
            run_policy(policy, inst, params(300, resample_actions_per_step=True), rng_for(5))
        assert len(calls) == 5
        assert not producer_threads()

    def test_closing_the_sets_early_stops_the_thread(self, monkeypatch):
        inst = toy_instance(m=2, K=2)
        self.small_chunks(monkeypatch, inst, width=1)
        p = params(1000, resample_actions_per_step=True)
        # closed before the first step: no thread was started
        sets = _action_sets([inst], p, [rng_for(8)])
        assert not producer_threads()
        sets.close()
        assert not producer_threads()
        # closed after a step, with the thread drawing the second slot or waiting
        # for a free one: it is stopped and joined, having drawn one or two steps
        stream = rng_for(8)
        sets = _action_sets([inst], p, [stream])
        next(sets)
        assert len(producer_threads()) == 1
        sets.close()
        assert not producer_threads()
        replay = rng_for(8)
        n_random = inst.action_set.shape[0] - inst.K * inst.m
        states = []
        for _ in range(3):
            resample_actions(inst, n_random, replay)
            states.append(replay.bit_generator.state)
        assert stream.bit_generator.state in states[:2]


@pytest.mark.parametrize("T", [0, -3, 2.5, True])
def test_policy_params_reject_malformed_values(T):
    """A malformed horizon fails when its PolicyParams is built, so no runner can be
    handed it, with the message a RunConfig gives for the same value."""
    with pytest.raises(InvalidConfigError) as want:
        RunConfig(d=6, m=2, K=4, T=T)
    with pytest.raises(InvalidConfigError) as got:
        PolicyParams(T=T)
    assert str(got.value) == str(want.value) == f"T must be an integer >= 1, got {T!r}"


def test_spread_dominance_against_standalone_rumor_process():
    """Phases from all-holders-recommend-correctly to all-agents-hold-true,
    versus the standalone pull rumor spreading time, as empirical CDFs."""
    K, N, T, n_seeds = 8, 4, 1500, 200
    g = complete_graph(N)
    gaps = []
    for seed in range(n_seeds):
        inst = toy_instance(m=1, K=K, noise_std=1.0, seed=seed)
        res = run_subgoss_multi(
            inst,
            params(T),
            g,
            [rng_for(1000 * seed + i) for i in range(N)],
            rng_for(7000 + seed),
        )
        holdings = [starting_sets(K, N)] + res.active_history[:-1]
        n_ph = res.n_phases
        # p1: first phase from which every holder of the true id recommends it
        good = []
        for j in range(n_ph):
            ok = all(
                res.recommendations[j][i] == inst.true_index
                for i in range(N)
                if inst.true_index in holdings[j][i]
            )
            good.append(ok)
        p1 = None
        for j in range(n_ph, 0, -1):
            if good[j - 1]:
                p1 = j
            else:
                break
        if p1 is None:
            gaps.append(np.inf)
            continue
        p2 = next(
            (
                j
                for j in range(p1, n_ph + 1)
                if all(inst.true_index in holdings[j - 1][i] for i in range(N))
            ),
            None,
        )
        gaps.append(np.inf if p2 is None else p2 - p1)
    gaps = np.array(gaps)
    r = rng_for(99)
    taus = np.array([simulate_rumor_spread(g, 0, r)[0] for _ in range(2000)])
    for x in range(0, int(taus.max()) + 1):
        f_gap = np.mean(gaps <= x)
        f_tau = np.mean(taus <= x)
        sigma = np.sqrt(max(f_tau * (1 - f_tau), 1e-6) / n_seeds)
        assert f_gap >= f_tau - 3 * sigma
