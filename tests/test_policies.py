"""Agent state machine, phase arithmetic, and the four run loops."""

import math

import numpy as np
import pytest

from subgoss import bounds, policies
from subgoss.environment import (
    ProblemInstance,
    SubspaceCollection,
    generate_instance,
    resample_actions,
)
from subgoss.errors import InvalidConfigError, InvariantViolationError, ProtocolError
from subgoss.harness import RunConfig, run_one_seed
from subgoss.linalg import Basis, ExploreStats, LinUcbStats, ucb_scores
from subgoss.network import complete_graph, simulate_rumor_spread
from subgoss.policies import (
    AgentState,
    PhaseSchedule,
    PolicyParams,
    Recommendation,
    _EnvView,
    _noise_streams,
    detect_freeze,
    end_explore_update,
    explore_plan,
    gossip_exchange,
    init_agents,
    run_genie,
    run_oful_baseline,
    run_single_agent_subgoss,
    run_subgoss_multi,
    update_active_set,
)


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
    start = 1 + sum(PhaseSchedule(b=b, j=l).phase_length for l in range(1, j))
    return start, start + PhaseSchedule(b=b, j=j).phase_length - 1


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
        with pytest.raises(InvalidConfigError):
            PhaseSchedule(b=1.0, j=1)
        with pytest.raises(InvalidConfigError):
            PhaseSchedule(b=2.0, j=0)


class TestPhaseSchedule:
    def test_budgets(self):
        s = PhaseSchedule(b=2.0, j=9, explore_budget_mode="experimental")
        assert s.explore_budget(2) == 2 * math.ceil(2 ** 3.5)  # 24
        t = PhaseSchedule(b=2.0, j=9, explore_budget_mode="theoretical")
        assert t.explore_budget(2) == 8 * 2 * math.ceil(2 ** 4)

    def test_budget_fits_phase(self):
        # spec'd arithmetic: 3 active subspaces, total 72 <= 256 slots
        s = PhaseSchedule(b=2.0, j=9, explore_budget_mode="experimental")
        assert 3 * s.explore_budget(2) == 72 <= s.phase_length == 256

    def test_unknown_mode(self):
        with pytest.raises(InvalidConfigError):
            PhaseSchedule(b=2.0, j=1, explore_budget_mode="bogus")


# ---------------------------------------------------------------------------
# agent initialization and the active-set machine


class TestInitAgents:
    def test_equal_partition_k12_n3(self):
        agents = init_agents(12, 3)
        # second agent owns subspaces 4..7 (ids are 0-based)
        assert agents[1].sticky_set == frozenset({4, 5, 6, 7})
        assert agents[1].active_set == (4, 5, 6, 7)

    def test_singletons_when_k_equals_n(self):
        agents = init_agents(5, 5)
        assert all(len(a.sticky_set) == 1 for a in agents)

    def test_divisibility(self):
        with pytest.raises(InvalidConfigError):
            init_agents(12, 5)


def agent_with(active, sticky, schedule=None, n_subspaces=12):
    return AgentState(
        id=0,
        n_subspaces=n_subspaces,
        sticky_set=frozenset(sticky),
        active_set=tuple(sorted(active)),
        schedule=schedule,
    )


class TestExplorePlan:
    def test_round_robin_full_budget(self):
        # m=1, budget 2 per subspace, phase long enough -> a,b,a,b
        sched = PhaseSchedule(b=2.0, j=4, explore_budget_mode="experimental")
        assert sched.explore_budget(1) == 2 and sched.phase_length == 8
        ag = agent_with([3, 7], [3, 7], sched)
        assert explore_plan(ag, 1) == [(3, 0), (7, 0), (3, 0), (7, 0)]

    def test_short_phase_fills_entirely(self):
        # phase length 3 below the total budget of 4 -> whole phase, equal as possible
        sched = PhaseSchedule(b=1.5, j=3, explore_budget_mode="experimental")
        assert sched.phase_length == 3 and 2 * sched.explore_budget(1) == 4
        ag = agent_with([3, 7], [3, 7], sched)
        assert explore_plan(ag, 1) == [(3, 0), (7, 0), (3, 0)]

    def test_columns_continue_round_robin_across_phases(self):
        sched = PhaseSchedule(b=2.0, j=4, explore_budget_mode="experimental")
        ag = agent_with([5], [5], sched)
        stats = ExploreStats(2)
        stats.add_play(0, 0.0)  # column 0 already played once in an earlier phase
        ag.explore[5] = stats
        cols = [c for _, c in explore_plan(ag, 2)]
        assert cols[0] == 1  # least-played column first
        assert abs(cols.count(0) + 1 - (cols.count(1) + 0)) <= 1

    def test_empty_active_set(self):
        sched = PhaseSchedule(b=2.0, j=1)
        ag = agent_with([], [], sched)
        with pytest.raises(InvariantViolationError):
            explore_plan(ag, 1)


class TestEndExploreUpdate:
    def test_noiseless_norms_and_best(self):
        inst = toy_instance(m=1, K=2)
        sched = PhaseSchedule(b=2.0, j=3)
        ag = agent_with([0, 1], [0, 1], sched, n_subspaces=2)
        for k in (0, 1):
            st = ExploreStats(1)
            st.add_play(0, float(inst.subspaces.bases[k].columns[:, 0] @ inst.theta_star))
            ag.explore[k] = st
        out = end_explore_update(ag, inst.subspaces.bases)
        assert out.best_estimate_id == 0
        assert out.last_estimates[0][1] == pytest.approx(0.9)
        assert out.last_estimates[1][1] == pytest.approx(0.0)

    def test_strict_missing_samples_raise(self):
        inst = toy_instance(m=1, K=2)
        ag = agent_with([0, 1], [0, 1], PhaseSchedule(b=2.0, j=1), n_subspaces=2)
        with pytest.raises(InvariantViolationError):
            end_explore_update(ag, inst.subspaces.bases)

    def test_relaxed_excludes_unsampled(self):
        inst = toy_instance(m=1, K=3)
        ag = agent_with([0, 1, 2], [0, 1, 2], PhaseSchedule(b=2.0, j=1), n_subspaces=3)
        st = ExploreStats(1)
        st.add_play(0, 0.9)
        ag.explore[0] = st
        out = end_explore_update(ag, inst.subspaces.bases, strict=False)
        assert out.best_estimate_id == 0

    def test_tie_breaks_lowest_id(self):
        inst = toy_instance(m=1, K=3)
        ag = agent_with([1, 2], [1, 2], PhaseSchedule(b=2.0, j=2), n_subspaces=3)
        for k in (1, 2):
            st = ExploreStats(1)
            st.add_play(0, 0.5)  # identical norms
            ag.explore[k] = st
        out = end_explore_update(ag, inst.subspaces.bases)
        assert out.best_estimate_id == 1

    def test_matches_log_replay_oracle(self):
        # noisy plays; recompute estimates from the raw (column, reward) log
        inst = toy_instance(m=2, K=3)
        r = rng_for(8)
        ag = agent_with([0, 2], [0, 2], PhaseSchedule(b=2.0, j=5), n_subspaces=3)
        log = {0: [], 2: []}
        for k in (0, 2):
            st = ExploreStats(2)
            for i in range(6):
                col = i % 2
                rew = float(r.standard_normal())
                st.add_play(col, rew)
                log[k].append((col, rew))
            ag.explore[k] = st
        out = end_explore_update(ag, inst.subspaces.bases)
        for k in (0, 2):
            sums = np.zeros(2)
            counts = np.zeros(2)
            for col, rew in log[k]:
                sums[col] += rew
                counts[col] += 1
            oracle = inst.subspaces.bases[k].columns @ (sums / counts)
            assert np.allclose(out.last_estimates[k][0], oracle, atol=1e-12)
            assert out.last_estimates[k][1] == pytest.approx(np.linalg.norm(oracle))


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
    def two_agents(self):
        agents = init_agents(4, 2)
        for ag, best in zip(agents, (1, 3)):
            ag.schedule = PhaseSchedule(b=2.0, j=2)
            ag.best_estimate_id = best
        return agents

    def test_swap_matrix_deterministic(self):
        agents = self.two_agents()
        recs = gossip_exchange(agents, complete_graph(2), rng_for(0))
        assert [(r.to_agent, r.from_agent, r.subspace_id) for r in recs] == [
            (0, 1, 3),
            (1, 0, 1),
        ]

    def test_pull_leaves_sender_untouched(self):
        agents = self.two_agents()
        before = [(a.active_set, a.best_estimate_id) for a in agents]
        gossip_exchange(agents, complete_graph(2), rng_for(0))
        assert [(a.active_set, a.best_estimate_id) for a in agents] == before

    def test_size_mismatch(self):
        agents = self.two_agents()
        with pytest.raises(InvalidConfigError):
            gossip_exchange(agents, complete_graph(3), rng_for(0))

    def test_missing_recommendation(self):
        agents = self.two_agents()
        agents[1].best_estimate_id = None
        with pytest.raises(InvariantViolationError):
            gossip_exchange(agents, complete_graph(2), rng_for(0))


class TestUpdateActiveSet:
    def rec(self, sub):
        return Recommendation(from_agent=1, to_agent=0, subspace_id=sub, phase=3)

    def test_case_i_already_active(self):
        ag = agent_with([0, 1], [0, 1])
        out = update_active_set(ag, self.rec(1))
        assert out.active_set == (0, 1)

    def test_case_ii_room_to_add(self):
        ag = agent_with([0, 1, 5], [0, 1])  # cap is 4
        out = update_active_set(ag, self.rec(7))
        assert out.active_set == (0, 1, 5, 7)

    def test_case_iii_keeps_best_non_sticky(self):
        ag = agent_with([0, 1, 5, 8], [0, 1])
        ag.last_estimates = {5: (None, 0.7), 8: (None, 0.2)}
        out = update_active_set(ag, self.rec(9))
        assert out.active_set == (0, 1, 5, 9)  # 8 dropped, 5 retained

    def test_out_of_range(self):
        ag = agent_with([0, 1], [0, 1])
        with pytest.raises(ProtocolError):
            update_active_set(ag, self.rec(99))

    def test_invariants_enforced(self):
        ag = agent_with([0, 1, 2], [0, 1, 3])  # sticky escapes active
        with pytest.raises(InvariantViolationError):
            ag.check_invariants()


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
        starts = [tuple(a.active_set) for a in init_agents(4, 4)]
        holdings = [starts] + res.active_history[:-1]
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

    def test_budget_accounting_from_event_log(self):
        inst = toy_instance(m=2, K=4, noise_std=1.0, seed=2)
        T = 400
        res = run_subgoss_multi(
            inst,
            params(T, log_plays=True),
            complete_graph(2),
            multi_rngs(2),
            rng_for(9),
        )
        starts = [tuple(a.active_set) for a in init_agents(4, 2)]
        holdings = [starts] + res.active_history[:-1]
        for j in range(1, res.n_phases + 1):
            start, end_full = phase_boundaries(2.0, j)
            slots = min(end_full, T) - start + 1
            sched = PhaseSchedule(b=2.0, j=j)
            for i in range(2):
                active = holdings[j - 1][i]
                budget_total = sched.explore_budget(2) * len(active)
                expected_explore = min(slots, min(budget_total, sched.phase_length))
                plays = [
                    e for e in res.events
                    if e["agent"] == i and e["phase"] == j
                    and e["event"] in ("explore_play", "exploit_play")
                ]
                explores = [e for e in plays if e["event"] == "explore_play"]
                assert len(plays) == slots
                assert len(explores) == expected_explore

    def test_exploit_subspace_matches_recommendation(self):
        inst = toy_instance(m=1, K=4, noise_std=1.0, seed=3)
        res = run_subgoss_multi(
            inst,
            params(300, log_plays=True),
            complete_graph(2),
            multi_rngs(2),
            rng_for(11),
        )
        for e in res.events:
            if e["event"] == "exploit_play":
                assert e["subspace"] == res.recommendations[e["phase"] - 1][e["agent"]]

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
        res = run_single_agent_subgoss(inst, params(300, log_plays=True), rng_for(2))
        explored = {e["subspace"] for e in res.events if e["event"] == "explore_play"}
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
    a = run_genie(inst, p, rng_for(4), action_key=77)
    b = run_genie(inst, p, rng_for(4), action_key=77)
    c = run_genie(inst, p, rng_for(4), action_key=78)
    assert np.array_equal(a.inst_regret, b.inst_regret)
    assert not np.array_equal(a.inst_regret, c.inst_regret)


def reference_linucb(instance, params, noise_rng, action_key, genie, track_coverage=False):
    """Hand-written genie and oful loops: the reference run_genie and run_oful_baseline
    must match bit for bit."""
    T, delta, lam, S = params.T, params.delta_value(), params.lam, params.s_bound
    env = _EnvView(instance, params, action_key)
    nz = _noise_streams(instance, 1, T, [noise_rng])[0]
    dim = instance.m if genie else instance.d
    basis = instance.subspaces.bases[instance.true_index]
    theta_m = basis.columns.T @ instance.theta_star
    gram, moment, count = lam * np.eye(dim), np.zeros(dim), 0
    inst_regret = np.zeros((1, T))
    covered = True
    for t in range(1, T + 1):
        actions, values, vstar, coords = env.at(t)
        X = coords[instance.true_index] if genie else actions.T
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
                inst, p, rng_for(5), 33, genie=True, track_coverage=True
            )
            got = run_genie(inst, p, rng_for(5), action_key=33, track_coverage=True)
            assert np.array_equal(got.inst_regret, want)
            assert got.coverage_ok == want_cov
            want, _ = reference_linucb(inst, p, rng_for(6), 34, genie=False)
            got = run_oful_baseline(inst, p, rng_for(6), action_key=34)
            assert np.array_equal(got.inst_regret, want)


def run_policy(policy, inst, p, action_key):
    """One run of a named policy variant, with fixed noise and gossip streams."""
    if policy.startswith("multi"):
        n = int(policy[-1])
        return run_subgoss_multi(
            inst, p, complete_graph(n), multi_rngs(n), rng_for(9), action_key=action_key
        )
    if policy == "single":
        return run_single_agent_subgoss(inst, p, rng_for(1), action_key=action_key)
    if policy == "genie":
        return run_genie(inst, p, rng_for(2), action_key=action_key, track_coverage=True)
    return run_oful_baseline(inst, p, rng_for(3), action_key=action_key)


@pytest.mark.parametrize("policy", ["multi4", "multi2", "single", "genie", "oful"])
def test_resampled_action_set_drawn_once_per_step(policy, monkeypatch):
    draws = []

    def counting(instance, n_actions, rng):
        draws.append(1)
        return resample_actions(instance, n_actions, rng)

    monkeypatch.setattr(policies, "resample_actions", counting)
    inst = toy_instance(m=2, K=4, noise_std=1.0)
    T = 150
    run_policy(policy, inst, params(T, resample_actions_per_step=True), action_key=5)
    assert len(draws) == T


@pytest.mark.parametrize("policy", ["multi4", "multi2", "single"])
def test_every_agent_plays_from_the_set_keyed_by_step(policy):
    # basis-column rows are the same in every set; with many random rows in a
    # small ambient space, exploits often play a random row, which tells sets apart
    inst = generate_instance(4, 2, 4, 2, 200, 0.0, 1.0, rng_for(12))
    n_random = inst.action_set.shape[0] - inst.K * inst.m
    key = 41
    res = run_policy(policy, inst, params(200, log_plays=True, resample_actions_per_step=True), key)
    plays = [e for e in res.events if e["event"] in ("explore_play", "exploit_play")]
    assert len(plays) == res.n_agents * 200
    assert any(e.get("action", n_random) < n_random for e in plays)
    for e in plays:
        rng = np.random.default_rng(np.random.SeedSequence((key, e["t"])))
        values = resample_actions(inst, n_random, rng) @ inst.theta_star
        if e["event"] == "explore_play":
            row = n_random + e["subspace"] * inst.m + e["column"]
        else:
            row = e["action"]
        assert e["reward"] == values[row]


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
        starts = [tuple(a.active_set) for a in init_agents(K, N)]
        holdings = [starts] + res.active_history[:-1]
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
