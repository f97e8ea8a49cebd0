"""Phased explore/exploit agents over a gossip graph, plus baseline policies.

All subspace and agent indices are 0-based internally. Phases are globally
synchronized: every agent runs its explore round-robin at the start of phase j,
refreshes its explore estimates, exploits with the projected optimistic rule on
its best-estimate subspace, and pulls one recommendation at the phase end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import bounds
from .environment import ProblemInstance, resample_actions
from .errors import (
    InvalidConfigError,
    InvariantViolationError,
    ProtocolError,
)
from .linalg import ExploreStats, LinUcbStats, explore_estimate, ucb_scores
from .network import GossipMatrix, sample_neighbor


# ---------------------------------------------------------------------------
# phase arithmetic


@dataclass(frozen=True)
class PhaseSchedule:
    """Current phase geometry and the explore-budget rule in force."""

    b: float
    j: int
    explore_budget_mode: str = "experimental"

    def __post_init__(self):
        if self.explore_budget_mode not in ("theoretical", "experimental"):
            raise InvalidConfigError(
                f"unknown explore budget mode {self.explore_budget_mode!r}"
            )
        if not self.b > 1 or self.j < 1:
            raise InvalidConfigError(f"need b > 1 and j >= 1, got b={self.b}, j={self.j}")

    @property
    def phase_length(self) -> int:
        """Phase j spans ceil(b**(j-1)) slots."""
        return math.ceil(self.b ** (self.j - 1))

    def explore_budget(self, m: int) -> int:
        """Per-subspace explore slots for this phase."""
        if self.explore_budget_mode == "theoretical":
            return 8 * m * math.ceil(self.b ** ((self.j - 1) / 2.0))
        return m * math.ceil(self.b ** ((self.j - 2) / 2.0))


# ---------------------------------------------------------------------------
# agent state


@dataclass
class AgentState:
    id: int
    n_subspaces: int
    sticky_set: frozenset
    active_set: tuple  # sorted subspace ids
    explore: dict = field(default_factory=dict)  # k -> ExploreStats
    linucb: dict = field(default_factory=dict)  # k -> LinUcbStats
    schedule: PhaseSchedule | None = None
    last_estimates: dict = field(default_factory=dict)  # k -> (theta, norm)
    best_estimate_id: int | None = None

    def check_invariants(self) -> None:
        if not self.sticky_set <= set(self.active_set):
            raise InvariantViolationError("sticky set escaped the active set")
        if len(self.active_set) > len(self.sticky_set) + 2:
            raise InvariantViolationError("active set exceeded its cap")


@dataclass(frozen=True)
class Recommendation:
    from_agent: int
    to_agent: int
    subspace_id: int
    phase: int


def init_agents(K: int, N: int) -> list:
    """Partition the K subspaces equally into sticky sets; active sets start equal to them."""
    if K % N != 0:
        raise InvalidConfigError(f"K={K} must be an integral multiple of N={N}")
    size = K // N
    agents = []
    for i in range(N):
        sticky = frozenset(range(i * size, (i + 1) * size))
        agents.append(
            AgentState(
                id=i,
                n_subspaces=K,
                sticky_set=sticky,
                active_set=tuple(sorted(sticky)),
            )
        )
    return agents


def explore_plan(state: AgentState, m: int) -> list:
    """Slot-by-slot explore schedule for the current phase as (subspace, column) pairs.

    Subspaces are cycled in active-set order; within a subspace the least-played
    column (cumulatively, across phases) is chosen. When the phase is shorter
    than the total budget the whole phase is filled with the same cycle.
    """
    if not state.active_set:
        raise InvariantViolationError("empty active set")
    if state.schedule is None:
        raise InvariantViolationError("agent has no phase schedule")
    budget = state.schedule.explore_budget(m)
    length = state.schedule.phase_length
    total = budget * len(state.active_set)
    n_slots = total if length >= total else length

    counts = {k: state.explore[k].count.copy() if k in state.explore else np.zeros(m, dtype=np.int64)
              for k in state.active_set}
    plan = []
    active = state.active_set
    for s in range(n_slots):
        k = active[s % len(active)]
        col = int(np.argmin(counts[k]))
        counts[k][col] += 1
        plan.append((k, col))
    return plan


def end_explore_update(state: AgentState, bases, strict: bool = True) -> AgentState:
    """Refresh explore estimates for every active subspace and pick the largest-norm one.

    With strict=True an active subspace without any explore sample raises; the
    simulation loop relaxes this during phases too short to cover the active set,
    where unsampled subspaces are simply excluded from the argmax.
    """
    estimates = {}
    best, best_norm = None, -np.inf
    for k in state.active_set:
        stats = state.explore.get(k)
        if stats is None or stats.total_count == 0:
            if strict:
                raise InvariantViolationError(
                    f"active subspace {k} has no explore samples"
                )
            estimates[k] = (None, -np.inf)
            continue
        theta = explore_estimate(stats, bases[k])
        norm = float(np.linalg.norm(theta))
        estimates[k] = (theta, norm)
        if norm > best_norm:  # ties keep the lower id (sorted iteration)
            best, best_norm = k, norm
    if best is None:
        best = min(state.active_set)
    return replace(state, last_estimates=estimates, best_estimate_id=best)


def gossip_exchange(states, gossip_matrix: GossipMatrix, rng) -> list:
    """Every agent pulls its partner's current best-estimate id; senders are unmodified."""
    if gossip_matrix.n_agents != len(states):
        raise InvalidConfigError("gossip matrix size does not match the agent count")
    recs = []
    for st in states:
        partner = sample_neighbor(gossip_matrix, st.id, rng)
        payload = states[partner].best_estimate_id
        if payload is None:
            raise InvariantViolationError("partner has no recommendation yet")
        recs.append(
            Recommendation(
                from_agent=partner,
                to_agent=st.id,
                subspace_id=payload,
                phase=st.schedule.j if st.schedule else 0,
            )
        )
    return recs


def update_active_set(state: AgentState, rec: Recommendation) -> AgentState:
    """Accept a recommendation; on overflow keep sticky + best non-sticky + recommended."""
    if not 0 <= rec.subspace_id < state.n_subspaces:
        raise ProtocolError(f"recommended subspace {rec.subspace_id} out of range")
    cap = len(state.sticky_set) + 2
    active = set(state.active_set)
    if rec.subspace_id in active:
        new = state
    elif len(active) < cap:
        new = replace(state, active_set=tuple(sorted(active | {rec.subspace_id})))
    else:
        non_sticky = sorted(active - state.sticky_set)
        if len(non_sticky) != 2:
            raise InvariantViolationError("full active set must hold 2 non-sticky ids")
        best_ns, best_norm = None, -np.inf
        for k in non_sticky:
            _, norm = state.last_estimates.get(k, (None, -np.inf))
            if norm > best_norm:
                best_ns, best_norm = k, norm
        keep = set(state.sticky_set) | {best_ns, rec.subspace_id}
        new = replace(state, active_set=tuple(sorted(keep)))
    new.check_invariants()
    return new


# ---------------------------------------------------------------------------
# run configuration and result


@dataclass(frozen=True)
class PolicyParams:
    T: int
    b: float = 2.0
    lam: float = 1.0
    delta: float | None = None  # None means 1/T
    explore_budget_mode: str = "experimental"
    s_bound: float = 1.0
    log_plays: bool = False
    resample_actions_per_step: bool = False

    def delta_value(self) -> float:
        if self.delta is not None:
            return self.delta
        # 1/T, kept inside (0, 1) for tiny horizons
        return min(0.5, 1.0 / self.T)


@dataclass
class RunResult:
    """Per-agent regret trajectories plus the phase-level event record."""

    inst_regret: np.ndarray  # (N, T)
    seed: int | None
    n_phases: int
    freeze_phase: int | None
    recommendations: list  # per completed-or-final phase: list of best ids per agent
    comm_count: np.ndarray  # gossip exchanges per agent
    events: list
    coverage_ok: bool | None = None
    active_history: list = field(default_factory=list)  # per phase, post-gossip active sets

    @property
    def n_agents(self) -> int:
        return self.inst_regret.shape[0]

    @property
    def T(self) -> int:
        return self.inst_regret.shape[1]

    def cum_regret(self) -> np.ndarray:
        return np.cumsum(self.inst_regret, axis=1)


def detect_freeze(recommendations, true_index: int) -> int | None:
    """First phase (1-based) from which every agent's best id stays the true one."""
    freeze = None
    for j in range(len(recommendations), 0, -1):
        if not all(r == true_index for r in recommendations[j - 1]):
            break
        freeze = j
    return freeze


# ---------------------------------------------------------------------------
# environment precomputation shared by the runners


class _EnvView:
    """Cached projections of a fixed action set, or per-step resampled ones.

    Every action set holds n_random random rows followed by the K*m basis
    columns, subspace by subspace.
    """

    def __init__(self, instance: ProblemInstance, params: PolicyParams, action_rng_key=None):
        self.instance = instance
        self.resample = params.resample_actions_per_step
        self.n_random = instance.action_set.shape[0] - instance.K * instance.m
        self.key = action_rng_key
        self._cache = {}
        if not self.resample:
            self._fixed = self._build(instance.action_set)

    def _build(self, actions: np.ndarray):
        theta = self.instance.theta_star
        values = actions @ theta
        coords = [b.columns.T @ actions.T for b in self.instance.subspaces.bases]
        return actions, values, float(values.max()), coords

    def at(self, t: int):
        if not self.resample:
            return self._fixed
        if t not in self._cache:
            rng = np.random.default_rng(np.random.SeedSequence((self.key, t)))
            actions = resample_actions(self.instance, self.n_random, rng)
            if len(self._cache) > 4:
                self._cache.clear()
            self._cache[t] = self._build(actions)
        return self._cache[t]


def _noise_streams(instance, n_agents, T, rngs):
    if instance.noise_std == 0:
        return [np.zeros(T + 1) for _ in range(n_agents)]
    return [
        np.concatenate(([0.0], instance.noise_std * rngs[i].standard_normal(T)))
        for i in range(n_agents)
    ]


# ---------------------------------------------------------------------------
# SubGoss runners


def _run_subgoss(
    instance: ProblemInstance,
    params: PolicyParams,
    gossip: GossipMatrix | None,
    noise_rngs,
    gossip_rng,
    seed=None,
    action_key=None,
) -> RunResult:
    """Phased play of N agents; without a gossip graph, one agent holding all K subspaces."""
    K, m, T = instance.K, instance.m, params.T
    bases = instance.subspaces.bases
    delta = params.delta_value()
    lam, S, b = params.lam, params.s_bound, params.b

    n_agents = gossip.n_agents if gossip else 1
    agents = init_agents(K, n_agents)

    columns = np.vstack([bs.columns.T for bs in bases])
    if not np.array_equal(instance.action_set[-len(columns):], columns):
        raise InvalidConfigError("explore plays need the K*m basis columns as the last actions")
    env = _EnvView(instance, params, action_key)
    noise = _noise_streams(instance, n_agents, T, noise_rngs)

    inst_regret = np.zeros((n_agents, T))
    comm_count = np.zeros(n_agents, dtype=np.int64)
    recommendations = []
    active_history = []
    events = []
    log_plays = params.log_plays

    j = 1
    start = 1
    while start <= T:
        schedule = PhaseSchedule(b=b, j=j, explore_budget_mode=params.explore_budget_mode)
        end_full = start + schedule.phase_length - 1
        end = min(end_full, T)
        slots = end - start + 1

        for i in range(n_agents):
            ag = agents[i]
            ag.schedule = schedule
            plan = explore_plan(ag, m)
            n_exp = min(len(plan), slots)
            nz = noise[i]
            for s in range(n_exp):
                t = start + s
                k, col = plan[s]
                _, values, vstar, _ = env.at(t)
                # the played column's row in the action set, so that vstar, the
                # maximum of the same values array, never falls below it
                a_val = float(values[env.n_random + k * m + col])
                r = a_val + nz[t]
                stats = ag.explore.get(k)
                if stats is None:
                    stats = ag.explore[k] = ExploreStats(m)
                stats.add_play(col, r)
                inst_regret[i, t - 1] = vstar - a_val
                if log_plays:
                    events.append(
                        {"t": t, "agent": i, "phase": j, "event": "explore_play",
                         "subspace": k, "column": col, "reward": r}
                    )
            ag = end_explore_update(ag, bases, strict=False)
            ag.schedule = schedule
            agents[i] = ag
            events.append(
                {"t": end, "agent": i, "phase": j, "event": "estimate",
                 "best": ag.best_estimate_id,
                 "norms": {k: v[1] for k, v in ag.last_estimates.items()}}
            )
            if n_exp < slots:
                k = ag.best_estimate_id
                stats = ag.linucb.get(k)
                if stats is None:
                    stats = ag.linucb[k] = LinUcbStats(m, lam)
                for s in range(n_exp, slots):
                    t = start + s
                    _, values, vstar, coords = env.at(t)
                    X = coords[k]
                    bval = bounds.beta(delta, m, lam, stats.count, S)
                    idx = int(ucb_scores(stats, X, bval).argmax())
                    r = float(values[idx]) + nz[t]
                    stats.add_play_coords(X[:, idx], r)
                    inst_regret[i, t - 1] = vstar - values[idx]
                    if log_plays:
                        events.append(
                            {"t": t, "agent": i, "phase": j, "event": "exploit_play",
                             "subspace": k, "action": idx, "reward": r}
                        )
            ag.check_invariants()

        recommendations.append([ag.best_estimate_id for ag in agents])

        if end_full <= T and n_agents > 1:
            recs = gossip_exchange(agents, gossip, gossip_rng)
            comm_count += 1
            for rec in recs:
                before = agents[rec.to_agent].active_set
                agents[rec.to_agent] = update_active_set(agents[rec.to_agent], rec)
                after = agents[rec.to_agent].active_set
                events.append(
                    {"t": end_full, "agent": rec.to_agent, "phase": j,
                     "event": "recommendation", "from": rec.from_agent,
                     "subspace": rec.subspace_id}
                )
                if before != after:
                    events.append(
                        {"t": end_full, "agent": rec.to_agent, "phase": j,
                         "event": "set_update", "active": list(after)}
                    )
        active_history.append([ag.active_set for ag in agents])
        j += 1
        start = end_full + 1

    n_phases = j - 1
    freeze = detect_freeze(recommendations, instance.true_index)
    if freeze is not None:
        events.append({"t": T, "agent": -1, "phase": freeze, "event": "freeze_detected"})
    return RunResult(
        inst_regret=inst_regret,
        seed=seed,
        n_phases=n_phases,
        freeze_phase=freeze,
        recommendations=recommendations,
        comm_count=comm_count,
        events=events,
        active_history=active_history,
    )


def run_subgoss_multi(
    instance, params, gossip: GossipMatrix, noise_rngs, gossip_rng, seed=None, action_key=None
) -> RunResult:
    """N collaborating agents on a gossip graph."""
    return _run_subgoss(instance, params, gossip, noise_rngs, gossip_rng, seed, action_key)


def run_single_agent_subgoss(instance, params, noise_rng, seed=None, action_key=None) -> RunResult:
    """One agent searching all K subspaces, no communication."""
    return _run_subgoss(instance, params, None, [noise_rng], None, seed, action_key)


def run_genie(
    instance, params, noise_rng, seed=None, action_key=None, track_coverage: bool = False
) -> RunResult:
    """Projected optimistic play on the true subspace from t = 1; no exploration or gossip."""
    return _run_linucb(
        instance, params, noise_rng, seed, action_key, instance.true_index, track_coverage
    )


def run_oful_baseline(instance, params, noise_rng, seed=None, action_key=None) -> RunResult:
    """Ambient-dimension optimistic baseline (OFUL): identity projector, d-dimensional Gram."""
    return _run_linucb(instance, params, noise_rng, seed, action_key, None)


def _run_linucb(
    instance, params, noise_rng, seed, action_key, k, track_coverage: bool = False
) -> RunResult:
    """Optimistic play from t = 1 in the coordinates of subspace k, or of R^d when k is None."""
    T = params.T
    dim = instance.d if k is None else instance.m
    delta = params.delta_value()
    lam, S = params.lam, params.s_bound
    env = _EnvView(instance, params, action_key)
    nz = _noise_streams(instance, 1, T, [noise_rng])[0]
    if track_coverage:
        theta_k = instance.subspaces.bases[k].columns.T @ instance.theta_star

    stats = LinUcbStats(dim, lam)
    inst_regret = np.zeros((1, T))
    covered = True
    for t in range(1, T + 1):
        actions, values, vstar, coords = env.at(t)
        X = actions.T if k is None else coords[k]
        bval = bounds.beta(delta, dim, lam, stats.count, S)
        if track_coverage:
            diff = stats.theta_hat() - theta_k
            if math.sqrt(float(diff @ stats.gram @ diff)) > bval:
                covered = False
        idx = int(ucb_scores(stats, X, bval).argmax())
        r = float(values[idx]) + nz[t]
        stats.add_play_coords(X[:, idx], r)
        inst_regret[0, t - 1] = vstar - values[idx]

    return RunResult(
        inst_regret=inst_regret,
        seed=seed,
        n_phases=0,
        freeze_phase=None,
        recommendations=[],
        comm_count=np.zeros(1, dtype=np.int64),
        events=[],
        coverage_ok=covered if track_coverage else None,
    )
