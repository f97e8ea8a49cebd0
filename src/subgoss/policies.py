"""Phased explore/exploit agents over a gossip graph, plus baseline policies.

All subspace and agent indices are 0-based internally. Phases are globally
synchronized: every agent runs its explore round-robin at the start of phase j,
refreshes its explore estimates, exploits with the projected optimistic rule on
its best-estimate subspace, and pulls one recommendation at the phase end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """One agent: its sticky and active sets and its per-subspace statistics.

    The protocol functions below update it in place.
    """

    id: int
    n_subspaces: int
    sticky_set: frozenset
    active_set: tuple  # sorted subspace ids
    explore: dict = field(default_factory=dict)  # k -> ExploreStats
    linucb: dict = field(default_factory=dict)  # k -> LinUcbStats
    last_estimates: dict = field(default_factory=dict)  # k -> (theta, norm)
    best_estimate_id: int | None = None

    def check_invariants(self) -> None:
        if not self.sticky_set <= set(self.active_set):
            raise InvariantViolationError("sticky set escaped the active set")
        if len(self.active_set) > len(self.sticky_set) + 2:
            raise InvariantViolationError("active set exceeded its cap")


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


def explore_plan(state: AgentState, schedule: PhaseSchedule, m: int) -> int:
    """Number of explore slots at the start of the phase.

    Slot s plays subspace active_set[s % |active_set|], on that subspace's
    least-played column (`ExploreStats.next_column`, counted across phases).
    When the phase is shorter than the total budget the whole phase explores.
    """
    if not state.active_set:
        raise InvariantViolationError("empty active set")
    return min(schedule.explore_budget(m) * len(state.active_set), schedule.phase_length)


def end_explore_update(state: AgentState, bases) -> None:
    """Refresh explore estimates for every active subspace and pick the largest-norm one.

    An active subspace without any explore sample, as in phases too short to
    cover the active set, gets norm -inf and is left out of the argmax.
    """
    estimates = {}
    best, best_norm = None, -np.inf
    for k in state.active_set:
        stats = state.explore.get(k)
        if stats is None or stats.total_count == 0:
            estimates[k] = (None, -np.inf)
            continue
        theta = explore_estimate(stats, bases[k])
        norm = float(np.linalg.norm(theta))
        estimates[k] = (theta, norm)
        if norm > best_norm:  # ties keep the lower id (sorted iteration)
            best, best_norm = k, norm
    state.last_estimates = estimates
    state.best_estimate_id = min(state.active_set) if best is None else best


def gossip_exchange(states, gossip_matrix: GossipMatrix, rng) -> list:
    """The best-estimate id each agent pulls from a sampled partner, in agent order."""
    if gossip_matrix.n_agents != len(states):
        raise InvalidConfigError("gossip matrix size does not match the agent count")
    pulled = []
    for st in states:
        payload = states[sample_neighbor(gossip_matrix, st.id, rng)].best_estimate_id
        if payload is None:
            raise InvariantViolationError("partner has no recommendation yet")
        pulled.append(payload)
    return pulled


def update_active_set(state: AgentState, subspace_id: int) -> None:
    """Accept a recommended id; on overflow keep sticky + best non-sticky + recommended."""
    if not 0 <= subspace_id < state.n_subspaces:
        raise ProtocolError(f"recommended subspace {subspace_id} out of range")
    active = set(state.active_set)
    if subspace_id in active:
        return
    if len(active) < len(state.sticky_set) + 2:
        active.add(subspace_id)
    else:
        non_sticky = sorted(active - state.sticky_set)
        if len(non_sticky) != 2:
            raise InvariantViolationError("full active set must hold 2 non-sticky ids")
        # ties, such as two ids never explored (norm -inf), keep the lower id
        best_ns = max(non_sticky, key=lambda k: state.last_estimates.get(k, (None, -np.inf))[1])
        active = set(state.sticky_set) | {best_ns, subspace_id}
    state.active_set = tuple(sorted(active))
    state.check_invariants()


# ---------------------------------------------------------------------------
# run configuration and result


@dataclass(frozen=True)
class PolicyParams:
    T: int
    b: float = 2.0
    lam: float = 1.0
    delta: float | None = None  # None means min(0.5, 1/T)
    explore_budget_mode: str = "experimental"
    log_plays: bool = False
    resample_actions_per_step: bool = False

    def delta_value(self) -> float:
        if self.delta is not None:
            return self.delta
        # 1/T, kept inside (0, 1) for tiny horizons
        return min(0.5, 1.0 / self.T)


@dataclass
class RunResult:
    """Per-agent regret trajectories and the phase-level record of a run.

    `events` holds the per-play records asked for by `PolicyParams.log_plays`,
    and is empty otherwise.
    """

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


class _SubspaceCoords(dict):
    """Coordinates U_k^T A^T of one action set A in subspace k, projected on first use."""

    __slots__ = ("_bases", "_actions")

    def __init__(self, bases, actions: np.ndarray):
        super().__init__()
        self._bases = bases
        self._actions = actions

    def __missing__(self, k):
        X = self[k] = self._bases[k].columns.T @ self._actions.T
        return X


class _EnvView:
    """The action set of step t, its values and optimum, and its subspace coordinates.

    Every action set holds n_random random rows followed by the K*m basis
    columns, subspace by subspace. A fixed set is viewed once for the whole run.
    A resampled set of step t is the t-th draw of the stream `action_rng`, so
    `at` must see t = 1, 2, ... in order, each step once, all agents together;
    only the view of the current step is kept. Coordinates are projected only
    onto the subspaces some agent reads.
    """

    def __init__(self, instance: ProblemInstance, params: PolicyParams, action_rng=None):
        self.instance = instance
        self.resample = params.resample_actions_per_step
        self.n_random = instance.action_set.shape[0] - instance.K * instance.m
        if self.resample and action_rng is None:
            raise InvalidConfigError("resampled action sets need an action stream")
        self._rng = action_rng
        self._t = 0
        self._view = None if self.resample else self._build(instance.action_set)

    def _build(self, actions: np.ndarray):
        values = actions @ self.instance.theta_star
        coords = _SubspaceCoords(self.instance.subspaces.bases, actions)
        return actions, values, float(values.max()), coords

    def at(self, t: int):
        if self.resample:
            if t != self._t + 1:
                raise InvariantViolationError(
                    f"action set of step {t} asked for after step {self._t}"
                )
            self._view = self._build(resample_actions(self.instance, self.n_random, self._rng))
            self._t = t
        return self._view


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
    action_rng=None,
) -> RunResult:
    """Phased play of N agents; without a gossip graph, one agent holding all K subspaces.

    Within a phase the agents advance in lockstep, step t outermost, so each
    step's action set is drawn and viewed once for all of them. Each agent plays
    its explore slots, refreshes its estimates at its own switch step
    (`end_explore_update`) and then exploits its best-estimate subspace. Until
    the gossip at the phase end no agent reads another's state, and each draws
    from its own noise stream, so the trajectories do not depend on this order.
    Each agent's play records of the phase are appended in agent order at its end.
    """
    K, m, T = instance.K, instance.m, params.T
    bases = instance.subspaces.bases
    delta = params.delta_value()
    lam, S, b = params.lam, instance.s_bound, params.b

    n_agents = gossip.n_agents if gossip else 1
    agents = init_agents(K, n_agents)

    if not np.array_equal(instance.action_set[-K * m:], instance.subspaces.basis_columns):
        raise InvalidConfigError("explore plays need the K*m basis columns as the last actions")
    env = _EnvView(instance, params, action_rng)
    n_random = env.n_random
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

        n_exp = [min(explore_plan(ag, schedule, m), slots) for ag in agents]
        logs = [[] for _ in range(n_agents)]
        exploit = [None] * n_agents  # (subspace, LinUcbStats) from the switch step on

        def estimate(i):
            ag = agents[i]
            end_explore_update(ag, bases)
            if n_exp[i] < slots:
                k = ag.best_estimate_id
                stats = ag.linucb.get(k)
                if stats is None:
                    stats = ag.linucb[k] = LinUcbStats(m, lam)
                exploit[i] = (k, stats)

        for s in range(slots):
            t = start + s
            _, values, vstar, coords = env.at(t)
            for i in range(n_agents):
                if s < n_exp[i]:
                    active = agents[i].active_set
                    k = active[s % len(active)]
                    explore = agents[i].explore
                    stats = explore.get(k)
                    if stats is None:
                        stats = explore[k] = ExploreStats(m)
                    col = stats.next_column()
                    # the played column's row in the action set, so that vstar, the
                    # maximum of the same values array, never falls below it
                    a_val = float(values[n_random + k * m + col])
                    r = a_val + noise[i][t]
                    stats.add_play(col, r)
                    inst_regret[i, t - 1] = vstar - a_val
                    if log_plays:
                        logs[i].append(
                            {"t": t, "agent": i, "phase": j, "event": "explore_play",
                             "subspace": k, "column": col, "reward": r}
                        )
                    continue
                if s == n_exp[i]:
                    estimate(i)
                k, stats = exploit[i]
                X = coords[k]
                bval = bounds.beta(delta, m, lam, stats.count, S)
                idx = int(ucb_scores(stats, X, bval).argmax())
                r = float(values[idx]) + noise[i][t]
                stats.add_play_coords(X[:, idx], r)
                inst_regret[i, t - 1] = vstar - values[idx]
                if log_plays:
                    logs[i].append(
                        {"t": t, "agent": i, "phase": j, "event": "exploit_play",
                         "subspace": k, "action": idx, "reward": r}
                    )

        for i in range(n_agents):
            if n_exp[i] == slots:
                estimate(i)
            events += logs[i]

        recommendations.append([ag.best_estimate_id for ag in agents])

        if end_full <= T and n_agents > 1:
            pulled = gossip_exchange(agents, gossip, gossip_rng)
            comm_count += 1
            for ag, k in zip(agents, pulled):
                update_active_set(ag, k)
        active_history.append([ag.active_set for ag in agents])
        j += 1
        start = end_full + 1

    return RunResult(
        inst_regret=inst_regret,
        seed=seed,
        n_phases=j - 1,
        freeze_phase=detect_freeze(recommendations, instance.true_index),
        recommendations=recommendations,
        comm_count=comm_count,
        events=events,
        active_history=active_history,
    )


def run_subgoss_multi(
    instance, params, gossip: GossipMatrix, noise_rngs, gossip_rng, seed=None, action_rng=None
) -> RunResult:
    """N collaborating agents on a gossip graph."""
    return _run_subgoss(instance, params, gossip, noise_rngs, gossip_rng, seed, action_rng)


def run_single_agent_subgoss(instance, params, noise_rng, seed=None, action_rng=None) -> RunResult:
    """One agent searching all K subspaces, no communication."""
    return _run_subgoss(instance, params, None, [noise_rng], None, seed, action_rng)


def run_genie(
    instance, params, noise_rng, seed=None, action_rng=None, track_coverage: bool = False
) -> RunResult:
    """Projected optimistic play on the true subspace from t = 1; no exploration or gossip."""
    return _run_linucb(
        instance, params, noise_rng, seed, action_rng, instance.true_index, track_coverage
    )


def run_oful_baseline(instance, params, noise_rng, seed=None, action_rng=None) -> RunResult:
    """Ambient-dimension optimistic baseline (OFUL): identity projector, d-dimensional Gram."""
    return _run_linucb(instance, params, noise_rng, seed, action_rng, None)


def _run_linucb(
    instance, params, noise_rng, seed, action_rng, k, track_coverage: bool = False
) -> RunResult:
    """Optimistic play from t = 1 in the coordinates of subspace k, or of R^d when k is None."""
    T = params.T
    dim = instance.d if k is None else instance.m
    delta = params.delta_value()
    lam, S = params.lam, instance.s_bound
    env = _EnvView(instance, params, action_rng)
    nz = _noise_streams(instance, 1, T, [noise_rng])[0]
    if track_coverage:
        # V = lam*I + sum x x^T, kept here only for the coverage check
        theta_k = instance.subspaces.bases[k].columns.T @ instance.theta_star
        gram = lam * np.eye(dim)

    stats = LinUcbStats(dim, lam)
    inst_regret = np.zeros((1, T))
    covered = True
    for t in range(1, T + 1):
        actions, values, vstar, coords = env.at(t)
        X = actions.T if k is None else coords[k]
        bval = bounds.beta(delta, dim, lam, stats.count, S)
        idx = int(ucb_scores(stats, X, bval).argmax())
        x = X[:, idx]
        if track_coverage:
            diff = stats.theta_hat() - theta_k
            if math.sqrt(float(diff @ gram @ diff)) > bval:
                covered = False
            gram += x[:, None] * x
        r = float(values[idx]) + nz[t]
        stats.add_play_coords(x, r)
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
