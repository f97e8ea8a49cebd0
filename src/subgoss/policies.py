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
    `at` must see t = 1, 2, ... in order, each step once, all of the seed's
    lanes together; only the view of the current step is kept. Coordinates are
    projected only onto the subspaces some lane reads.
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


def _noise(instances, n_agents, T, noise_rngs) -> np.ndarray:
    """Reward noise of a batch, (T + 1) x lanes: row t holds every lane's noise at step t.

    Lane l reads stream l % n_agents of seed l // n_agents.
    """
    return np.column_stack([
        z for instance, rngs in zip(instances, noise_rngs)
        for z in _noise_streams(instance, n_agents, T, rngs)
    ])


def _stack_views(envs, t):
    """Every seed's view of step t, with its action values (seeds x actions) and optima stacked."""
    views = [env.at(t) for env in envs]
    return views, np.stack([v[1] for v in views]), np.array([v[2] for v in views])


class _PlayLog:
    """Every play of every lane, kept for `PolicyParams.log_plays` and turned into event dicts."""

    def __init__(self, T: int, n_lanes: int):
        self.explored = np.zeros((T, n_lanes), dtype=bool)
        self.subspace = np.zeros((T, n_lanes), dtype=np.int64)
        self.choice = np.zeros((T, n_lanes), dtype=np.int64)  # explore column or action index
        self.reward = np.zeros((T, n_lanes))

    def record(self, t, lanes, explored, subspace, choice, reward) -> None:
        row = t - 1
        self.explored[row, lanes] = explored
        self.subspace[row, lanes] = subspace
        self.choice[row, lanes] = choice
        self.reward[row, lanes] = reward

    def events(self, lanes, phases) -> list:
        """The plays of one seed's lanes, its agents in order: phase by phase, agent by
        agent, each agent's plays in time order."""
        kinds = {True: ("explore_play", "column"), False: ("exploit_play", "action")}
        events = []
        for j, start, end in phases:
            rows = slice(start - 1, end)
            for agent, lane in enumerate(lanes):
                plays = zip(
                    range(start, end + 1),
                    self.explored[rows, lane].tolist(),
                    self.subspace[rows, lane].tolist(),
                    self.choice[rows, lane].tolist(),
                    self.reward[rows, lane].tolist(),
                )
                for t, explored, k, choice, r in plays:
                    kind, key = kinds[explored]
                    events.append({"t": t, "agent": agent, "phase": j, "event": kind,
                                   "subspace": k, key: choice, "reward": r})
        return events


# ---------------------------------------------------------------------------
# runners: one engine for the phased policies and one for genie and oful, each
# running a batch of seeds; the public runners are batches of one seed


def _run_subgoss(instances, params, gossip, noise_rngs, gossip_rngs, seeds, action_rngs) -> list:
    """Phased play of N agents on each seed of a batch; without a gossip graph, one
    agent holding all K subspaces. Per-seed arguments are lists over the batch.

    Every (seed, agent) pair is a lane, lane l being agent l % N of seed l // N,
    and each step plays the move of every lane in one set of array operations.
    A lane plays its explore slots, refreshes its estimates at its own switch
    step (`end_explore_update`) and then exploits its best-estimate subspace.
    Its exploit statistics and coordinates are loaded into the step batch
    (`play`, `X`) at its switch step and saved at the phase end; before the
    switch its row of the batch is computed with the others and discarded. The
    protocol between plays runs per lane and per seed. Each lane draws from its
    own noise stream and each seed from its own gossip and action streams, so
    no result depends on the batch it runs in.
    """
    first = instances[0]
    K, m, T = first.K, first.m, params.T
    lam = params.lam
    delta = params.delta_value()
    resample = params.resample_actions_per_step
    n_agents = gossip.n_agents if gossip else 1
    n_lanes = len(instances) * n_agents
    lanes = np.arange(n_lanes)
    lane_seed = lanes // n_agents

    for instance in instances:
        if not np.array_equal(instance.action_set[-K * m:], instance.subspaces.basis_columns):
            raise InvalidConfigError(
                "explore plays need the K*m basis columns as the last actions"
            )
    envs = [_EnvView(inst, params, rng) for inst, rng in zip(instances, action_rngs)]
    n_random = envs[0].n_random
    groups = [init_agents(K, n_agents) for _ in instances]
    agents = [ag for group in groups for ag in group]
    explore = ExploreStats((n_lanes, K, m))
    for lane, ag in enumerate(agents):
        ag.explore = {k: explore[lane, k] for k in range(K)}
    saved = LinUcbStats(m, lam, (n_lanes, K))
    play = LinUcbStats(m, lam, (n_lanes,))
    subspace = np.zeros(n_lanes, dtype=np.int64)  # the subspace each lane exploits
    X = np.zeros((n_lanes, m, first.action_set.shape[0]))
    noise = _noise(instances, n_agents, T, noise_rngs)
    # radius by play count: a row gains at most one play per step from its saved
    # count on, so no count passes T
    beta = np.array([bounds.beta(delta, m, lam, c, first.s_bound) for c in range(T + 1)])
    inst_regret = np.empty((n_lanes, T))
    log = _PlayLog(T, n_lanes) if params.log_plays else None

    def estimate(ls):
        for lane in ls.tolist():
            end_explore_update(agents[lane], instances[lane_seed[lane]].subspaces.bases)

    def load_coords(ls):
        for lane in ls.tolist():
            X[lane] = views[lane_seed[lane]][3][subspace[lane]]

    recommendations = [[] for _ in instances]
    active_history = [[] for _ in instances]
    phases = []
    n_gossip = 0
    j = 1
    start = 1
    while start <= T:
        schedule = PhaseSchedule(b=params.b, j=j, explore_budget_mode=params.explore_budget_mode)
        end_full = start + schedule.phase_length - 1
        end = min(end_full, T)
        slots = end - start + 1

        n_exp = np.array([min(explore_plan(ag, schedule, m), slots) for ag in agents])
        switches = {s: lanes[n_exp == s] for s in set(n_exp.tolist()) if s < slots}
        n_active = np.array([len(ag.active_set) for ag in agents])
        active = np.zeros((n_lanes, n_active.max()), dtype=np.int64)
        for lane, ag in enumerate(agents):
            active[lane, : n_active[lane]] = ag.active_set
        explorers, exploiters = lanes, lanes[:0]

        for s in range(slots):
            t = start + s
            if t == 1 or resample:
                views, values, vstar = _stack_views(envs, t)
                values, vstar = values[lane_seed], vstar[lane_seed]
            switching = switches.get(s)
            if switching is not None:
                estimate(switching)
                subspace[switching] = [agents[lane].best_estimate_id for lane in switching]
                play.copy_lanes(switching, saved, (switching, subspace[switching]))
                if not resample:
                    load_coords(switching)
                explorers, exploiters = lanes[n_exp > s], lanes[n_exp <= s]
            if exploiters.size:
                if resample:
                    load_coords(exploiters)
                idx = ucb_scores(play, X, beta[play.count]).argmax(axis=1)
                a_val = values[lanes, idx]
                r = a_val + noise[t]
                play.add_play_coords(X[lanes, :, idx], r)
                inst_regret[:, t - 1] = vstar - a_val
                if log:
                    log.record(t, lanes, False, subspace, idx, r)
            if explorers.size:
                k = active[explorers, s % n_active[explorers]]
                col = explore.count[explorers, k].argmin(axis=1)  # ExploreStats.next_column
                # the played column's row in the action set, so that vstar, the
                # maximum of the same values array, never falls below it
                a_val = values[explorers, n_random + k * m + col]
                r = a_val + noise[t, explorers]
                explore.add_play((explorers, k, col), r)
                inst_regret[explorers, t - 1] = vstar[explorers] - a_val
                if log:
                    log.record(t, explorers, True, k, col, r)

        estimate(lanes[n_exp == slots])
        switched = lanes[n_exp < slots]
        saved.copy_lanes((switched, subspace[switched]), play, switched)
        phases.append((j, start, end))

        gossips = end_full <= T and n_agents > 1
        n_gossip += gossips
        for group, rng, recs, history in zip(groups, gossip_rngs, recommendations, active_history):
            recs.append([ag.best_estimate_id for ag in group])
            if gossips:
                for ag, k in zip(group, gossip_exchange(group, gossip, rng)):
                    update_active_set(ag, k)
            history.append([ag.active_set for ag in group])
        j += 1
        start = end_full + 1

    results = []
    for s, (instance, seed) in enumerate(zip(instances, seeds)):
        seed_lanes = range(s * n_agents, (s + 1) * n_agents)
        results.append(RunResult(
            inst_regret=inst_regret[s * n_agents:(s + 1) * n_agents],
            seed=seed,
            n_phases=j - 1,
            freeze_phase=detect_freeze(recommendations[s], instance.true_index),
            recommendations=recommendations[s],
            comm_count=np.full(n_agents, n_gossip, dtype=np.int64),
            events=log.events(seed_lanes, phases) if log else [],
            active_history=active_history[s],
        ))
    return results


def _run_linucb(instances, params, noise_rngs, seeds, action_rngs, k, track_coverage=False) -> list:
    """Optimistic play from t = 1 in the coordinates of subspace k, or of R^d when k
    is None, one lane per seed of a batch. Per-seed arguments are lists over the batch.

    Every lane plays every step, so all lanes share one play count and one radius.
    """
    first = instances[0]
    T = params.T
    dim = first.d if k is None else first.m
    lam = params.lam
    delta = params.delta_value()
    resample = params.resample_actions_per_step
    n_lanes = len(instances)
    lanes = np.arange(n_lanes)
    envs = [_EnvView(inst, params, rng) for inst, rng in zip(instances, action_rngs)]
    noise = _noise(instances, 1, T, [[rng] for rng in noise_rngs])
    stats = LinUcbStats(dim, lam, (n_lanes,))
    X = np.empty((n_lanes, dim, first.action_set.shape[0]))
    if track_coverage:
        # V = lam*I + sum x x^T, kept here only for the coverage check
        theta_k = np.stack([
            inst.subspaces.bases[k].columns.T @ inst.theta_star for inst in instances
        ])
        gram = np.broadcast_to(lam * np.eye(dim), (n_lanes, dim, dim)).copy()
        covered = np.ones(n_lanes, dtype=bool)

    inst_regret = np.empty((n_lanes, T))
    for t in range(1, T + 1):
        if t == 1 or resample:
            views, values, vstar = _stack_views(envs, t)
            for lane, (actions, _, _, coords) in enumerate(views):
                X[lane] = actions.T if k is None else coords[k]
        bval = bounds.beta(delta, dim, lam, t - 1, first.s_bound)
        idx = ucb_scores(stats, X, bval).argmax(axis=1)
        x = X[lanes, :, idx]
        if track_coverage:
            diff = stats.theta_hat() - theta_k
            covered &= ~(np.sqrt((diff[:, None, :] @ gram @ diff[:, :, None])[:, 0, 0]) > bval)
            gram += x[:, :, None] * x[:, None, :]
        a_val = values[lanes, idx]
        stats.add_play_coords(x, a_val + noise[t])
        inst_regret[:, t - 1] = vstar - a_val

    return [
        RunResult(
            inst_regret=inst_regret[lane:lane + 1],
            seed=seed,
            n_phases=0,
            freeze_phase=None,
            recommendations=[],
            comm_count=np.zeros(1, dtype=np.int64),
            events=[],
            coverage_ok=bool(covered[lane]) if track_coverage else None,
        )
        for lane, seed in enumerate(seeds)
    ]


def run_subgoss_multi(
    instance, params, gossip: GossipMatrix, noise_rngs, gossip_rng, seed=None, action_rng=None
) -> RunResult:
    """N collaborating agents on a gossip graph."""
    return _run_subgoss(
        [instance], params, gossip, [noise_rngs], [gossip_rng], [seed], [action_rng]
    )[0]


def run_single_agent_subgoss(instance, params, noise_rng, seed=None, action_rng=None) -> RunResult:
    """One agent searching all K subspaces, no communication."""
    return _run_subgoss([instance], params, None, [[noise_rng]], [None], [seed], [action_rng])[0]


def run_genie(
    instance, params, noise_rng, seed=None, action_rng=None, track_coverage: bool = False
) -> RunResult:
    """Projected optimistic play on the true subspace from t = 1; no exploration or gossip."""
    return _run_linucb(
        [instance], params, [noise_rng], [seed], [action_rng], instance.true_index,
        track_coverage,
    )[0]


def run_oful_baseline(instance, params, noise_rng, seed=None, action_rng=None) -> RunResult:
    """Ambient-dimension optimistic baseline (OFUL): identity projector, d-dimensional Gram."""
    return _run_linucb([instance], params, [noise_rng], [seed], [action_rng], None)[0]
