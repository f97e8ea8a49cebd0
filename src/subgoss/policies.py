"""Phased explore/exploit agents over a gossip graph, plus baseline policies.

All subspace and agent indices are 0-based internally. Phases are globally
synchronized: every agent runs its explore round-robin at the start of phase j,
refreshes its explore estimates, exploits with the projected optimistic rule on
its best-estimate subspace, and pulls one recommendation at the phase end.
Agents talk only in subspace ids: the sticky and active sets of all agents of a
batch are the rows of two (lanes, K) bool masks, and the protocol functions
below act on every lane at once.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .environment import normal_rows, normalized_rows
from .errors import InvalidConfigError, InvariantViolationError, ProtocolError
from .linalg import ExploreStats, LinUcbStats, ucb_candidates, ucb_scores
from .network import GossipMatrix, sample_neighbor


# ---------------------------------------------------------------------------
# phase arithmetic


def phase_length(b: float, j: int) -> int:
    """Phase j spans ceil(b**(j-1)) slots."""
    return math.ceil(b ** (j - 1))


def explore_budget(b: float, j: int, m: int, mode: str) -> int:
    """Per-subspace explore slots of phase j under the budget rule `mode`."""
    if mode == "theoretical":
        return 8 * m * math.ceil(b ** ((j - 1) / 2.0))
    return m * math.ceil(b ** ((j - 2) / 2.0))


# ---------------------------------------------------------------------------
# agent state: one row per lane of (lanes, K) bool masks over the subspace ids


def sticky_sets(K: int, N: int) -> np.ndarray:
    """The (N, K) sticky masks: the K subspaces split equally, agent i holding ids
    i*K/N up to (i+1)*K/N - 1. Active sets start equal to them."""
    if K % N != 0:
        raise InvalidConfigError(f"K={K} must be an integral multiple of N={N}")
    return np.arange(K) // (K // N) == np.arange(N)[:, None]


def explore_plan(active: np.ndarray, budget: int, length: int) -> np.ndarray:
    """Number of explore slots of each lane at the start of a phase of `length`
    slots, with `budget` slots per active subspace.

    Slot s plays the lane's (s mod |active|)-th active id in ascending order, on
    that subspace's least-played column (`ExploreStats.next_column`, counted
    across phases). When the phase is shorter than the total budget the whole
    phase explores.
    """
    n_active = active.sum(axis=1)
    if not n_active.all():
        raise InvariantViolationError("empty active set")
    return np.minimum(budget * n_active, length)


def explore_slots(order: np.ndarray, n_active: np.ndarray, count: np.ndarray, slots: np.ndarray):
    """The subspace ids and columns, each (lanes, len(slots)), that every lane
    plays in the explore slots `slots` of a phase, as `explore_plan` lays them out.

    `order` holds each lane's active ids in ascending order (padded at the end),
    `n_active` their number and `count` the (lanes, K, m) explore counts at the
    phase start. Slot s plays id k = order[s mod |active|], which the phase
    played s // |active| times before it. Every explore play takes the
    least-played column, lowest index first, so a subspace's counts are always
    a round-robin prefix and its least-played column is its total count mod m:
    slot s plays column (count_k + s // |active|) mod m, the column
    `ExploreStats.next_column` picks at that slot.
    """
    per = n_active[:, None]
    ids = np.take_along_axis(order, slots % per, axis=1)
    total = np.take_along_axis(count.sum(axis=2), ids, axis=1)
    return ids, (total + slots // per) % count.shape[2]


def end_explore_update(stats: ExploreStats, columns: np.ndarray, active: np.ndarray):
    """Explore-estimate norms and best-estimate ids of a group of L lanes.

    `active` is an (L, A) array of each lane's active ids in ascending order,
    padded at the end by repeats of the last one; `stats` holds the (L, A, m)
    explore statistics and `columns` the (L, A, d, m) bases of those ids.
    Returns the (L, A) norms of the estimates theta_k = U_k ybar_k
    (`linalg.explore_estimate`) and the (L,) ids of the largest norm. An id
    without any explore sample, as in phases too short to cover the active
    set, gets norm -inf and is left out of the argmax; ties keep the lower id,
    and a lane whose ids are all unsampled keeps its lowest one.
    """
    theta = (columns @ stats.mean()[..., None])[..., 0]
    # the square root of a dot product, as float(np.linalg.norm(theta)) is for
    # one vector; norm(axis=...) differs from it in the last bit
    norms = np.sqrt((theta[..., None, :] @ theta[..., :, None])[..., 0, 0])
    norms[stats.count.sum(axis=-1) == 0] = -np.inf
    return norms, active[np.arange(len(active)), norms.argmax(axis=1)]


def gossip_exchange(best: np.ndarray, gossip_matrix: GossipMatrix, rngs) -> np.ndarray:
    """The (seeds, N) best-estimate ids the agents pull from sampled partners.

    `best` holds each seed's best-estimate ids by agent; seed s draws the
    partners of its agents in agent order from its own stream `rngs[s]`.
    """
    if gossip_matrix.n_agents != best.shape[1]:
        raise InvalidConfigError("gossip matrix size does not match the agent count")
    partners = [[sample_neighbor(gossip_matrix, i, rng) for i in range(best.shape[1])]
                for rng in rngs]
    return np.take_along_axis(best, np.array(partners, dtype=np.int64), axis=1)


def update_active_set(active, sticky, norms, pulled) -> None:
    """Accept each lane's recommended id into its row of `active`, in place.

    An id already held changes nothing; one that fits under the cap of
    |sticky| + 2 ids is added; a full lane keeps its sticky ids, the non-sticky
    id of larger explore-estimate norm in `norms` and the recommended id. Ties,
    such as two ids never explored (norm -inf), keep the lower id.
    """
    bad = (pulled < 0) | (pulled >= active.shape[1])
    if bad.any():
        raise ProtocolError(f"recommended subspace {pulled[bad][0]} out of range")
    lanes = np.arange(len(active))
    new = ~active[lanes, pulled]
    cap = sticky.sum(axis=1) + 2
    full = new & (active.sum(axis=1) >= cap)
    non_sticky = active[full] & ~sticky[full]
    if (non_sticky.sum(axis=1) != 2).any():
        raise InvariantViolationError("full active set must hold 2 non-sticky ids")
    score = np.where(non_sticky, norms[full], -np.inf)
    kept = (non_sticky & (score == score.max(axis=1, keepdims=True))).argmax(axis=1)
    active[full] = sticky[full]
    active[lanes[full], kept] = True
    active[lanes[new], pulled[new]] = True
    if (sticky & ~active).any():
        raise InvariantViolationError("sticky set escaped the active set")
    if (active.sum(axis=1) > cap).any():
        raise InvariantViolationError("active set exceeded its cap")


# ---------------------------------------------------------------------------
# run configuration and result

def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return _is_int(x) or isinstance(x, (float, np.floating)) and math.isfinite(x)


# (fields, test, requirement) of the `PolicyParams` fields, which `harness.RunConfig`
# shares by building its PolicyParams
_PARAM_CHECKS = (
    (("T",), lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    (("delta",), lambda v: v is None or _is_real(v) and 0 < v < 1, "null or a number in (0, 1)"),
    (("b",), lambda v: _is_real(v) and v > 1, "a number > 1"),
    # V^-1 starts at I / lam, so 1 / lam must not overflow
    (("lam",), lambda v: _is_real(v) and v > 0 and math.isfinite(1.0 / float(v)),
     "a number > 0 with a finite inverse"),
    (("resample_actions_per_step",), lambda v: isinstance(v, bool), "true or false"),
    (("explore_budget_mode",), lambda v: v in ("theoretical", "experimental"),
     "'theoretical' or 'experimental'"),
)


def check_fields(config, checks) -> None:
    """Type and domain checks of a config's fields by a (fields, test, requirement)
    table, in table order, so a bad value fails before any run."""
    for names, ok, need in checks:
        for name in names:
            if not ok(value := getattr(config, name)):
                raise InvalidConfigError(f"{name} must be {need}, got {value!r}")


@dataclass(frozen=True)
class PolicyParams:
    T: int
    b: float = 2.0
    lam: float = 1.0
    delta: float | None = None  # None means min(0.5, 1/T)
    explore_budget_mode: str = "experimental"
    resample_actions_per_step: bool = False

    def __post_init__(self):
        check_fields(self, _PARAM_CHECKS)

    def delta_value(self) -> float:
        if self.delta is not None:
            return self.delta
        # 1/T, kept inside (0, 1) for tiny horizons
        return min(0.5, 1.0 / self.T)


@dataclass
class RunResult:
    """Per-agent regret trajectories, the record of every play and the phase-level
    record of a run.

    `explored[i, t-1]` tells whether agent i explored at step t, and
    `played[i, t-1]` is the row of step t's action set it played. An explore
    play's subspace is (played - n_random) // m and its column
    (played - n_random) % m; an exploit play's subspace is the agent's entry in
    `recommendations[j-1]` for the phase j it falls in.
    """

    inst_regret: np.ndarray  # (N, T)
    explored: np.ndarray  # (N, T) bool
    played: np.ndarray  # (N, T) action-set rows, of the smallest unsigned dtype
    seed: int | None
    n_phases: int
    freeze_phase: int | None
    recommendations: list  # per completed-or-final phase: list of best ids per agent
    comm_count: np.ndarray  # gossip exchanges per agent
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


# entries of the random rows one slot of the resample producer holds, seeds x W
# steps x n_random x d: W = max(1, this // (seeds * n_random * d)), clipped to T.
# The producer keeps two slots of 8-byte floats, 16 * seeds * W * n_random * d
# bytes, at most 16 * max(_DRAW_CHUNK, seeds * n_random * d), and the sets of a
# chunk take 8 * seeds * W * n_actions * d more. For the Fig-1 shape (120 x 24
# random rows, 144 actions) that is at most 0.79 + 0.47 MB up to 17 seeds
# (0.74 + 0.44 MB, W = 8, at 2 seeds) and 46 + 28 KB per seed above, where
# W = 1: 1.4 + 0.83 MB at 30 seeds. A larger W hands the helper thread more work
# per hand-over of the interpreter lock; W = 11 at 2 seeds was 1.1x faster than
# W = 8 but raised the peak memory of a 2-seed run by 5%, against 4%
_DRAW_CHUNK = 3 << 14
# the name of that helper thread
PRODUCER_THREAD = "subgoss-actions"


def _action_sets(instances, params, action_rngs):
    """Every step's action sets of a batch, t = 1, 2, ... in turn: the per-seed sets,
    their values stacked (seeds, n) and their optima (seeds,).

    Every action set holds n_random random rows followed by the K*m basis
    columns, subspace by subspace. A fixed set is the same at every step, and
    the engines read it once; the resampled set of step t is the t-th draw of
    its seed's stream in `action_rngs`, T of them (`_drawn_sets`); a step's
    resampled sets, values and optima are views valid until the next `next()`,
    and the engines use them only within the step. Resample mode without a
    stream fails here, before any stream is drawn from. The engines close the
    sets when they leave, whether they finish or fail.
    """
    if params.resample_actions_per_step:
        if None in action_rngs:
            raise InvalidConfigError("resampled action sets need an action stream")
        return _drawn_sets(instances, params.T, action_rngs)

    def fixed():
        while True:
            yield _valued([inst.action_set for inst in instances], instances)

    return fixed()


def _valued(actions, instances):
    """A step's per-seed action sets, their values stacked and their optima."""
    # one product over the whole set: values of the random rows and of the
    # basis rows computed apart differ in the last bit
    values = [a @ inst.theta_star for a, inst in zip(actions, instances)]
    return actions, np.stack(values), np.array([v.max() for v in values])


def _drawn_sets(instances, T, action_rngs):
    """The T resampled action sets of a batch, step by step, as `_action_sets` gives them.

    A generator: nothing runs before the first step. One helper thread then
    draws the standard normals of the random rows ahead into two slots of shape
    (seeds, W, n_random, d), W steps of every seed at a time (`_DRAW_CHUNK`),
    while this thread plays the steps of the other slot. A chunk's seeds are
    claimed one at a time: the helper thread claims from the first seed on, and
    this thread, when it reaches a chunk that is not drawn yet, claims from the
    last seed back instead of waiting. Each seed's block is one `normal_rows`
    call, and a chunk is started only once the one before is drawn, so each
    stream is drawn from in step order whatever the timing of the threads.
    This thread then takes the chunk whole: it normalizes its rows
    (`normalized_rows`) into a (seeds, W, n_actions, d) set buffer whose basis
    rows are written once per call, frees the slot, and values every set of the
    chunk by one product. The sets are those of T successive `resample_actions`
    calls, each in the memory layout `resample_actions` gives it. A step's sets,
    values and optima are views into buffers that the next chunk writes over,
    valid until the next `next()`. An error of the helper thread is raised
    again here, at the first step it left undrawn. Closing the generator stops
    and joins the thread; the engines close it in a `finally`, since a
    traceback that holds their frame keeps the generator alive.
    """
    first = instances[0]
    n_seeds, d = len(instances), first.d
    n_actions = first.action_set.shape[0]
    n_random = n_actions - first.K * first.m
    width = min(T, max(1, _DRAW_CHUNK // (n_seeds * n_random * d)))
    slots = np.empty((2, n_seeds, width, n_random, d))
    # each set in the layout np.concatenate gives it, on which the bits of its
    # products depend: Fortran order for one random row and m > 1
    if np.concatenate([slots[0, 0, 0], first.subspaces.basis_columns]).flags.c_contiguous:
        sets = np.empty((n_seeds, width, n_actions, d))
    else:
        sets = np.empty((n_seeds, width, d, n_actions)).swapaxes(-1, -2)
    sets[:, :, n_random:] = np.stack([inst.subspaces.basis_columns for inst in instances])[:, None]
    theta = np.stack([inst.theta_star for inst in instances])[:, None, :, None]
    free = [threading.Semaphore(1), threading.Semaphore(1)]
    filled = [threading.Semaphore(0), threading.Semaphore(0)]
    # per slot, under `lock`: the seeds of its chunk not yet claimed, [front, back),
    # and the number not yet drawn
    unclaimed = [[0, 0], [0, 0]]
    undrawn = [0, 0]
    lock = threading.Condition()
    stop = threading.Event()
    failed = [None, None]  # the error of the helper thread, at the slot it left undrawn

    def draw_claims(i, w, from_front):
        # draw the seeds of slot i's chunk this thread claims, W = w steps each
        while True:
            with lock:
                front, back = unclaimed[i]
                if front == back:
                    return
                s = front if from_front else back - 1
                unclaimed[i] = [front + 1, back] if from_front else [front, back - 1]
            normal_rows(action_rngs[s], slots[i, s, :w])
            with lock:
                undrawn[i] -= 1
                if undrawn[i] == 0:
                    filled[i].release()
                    lock.notify_all()

    def produce():
        c = 0
        try:
            for c, lo in enumerate(range(0, T, width)):
                i = c % 2
                free[i].acquire()
                with lock:
                    if stop.is_set():
                        return
                    unclaimed[i], undrawn[i] = [0, n_seeds], n_seeds
                draw_claims(i, min(width, T - lo), True)
                # the next chunk of a seed waits for this one, which the other
                # thread may still be drawing
                with lock:
                    lock.wait_for(lambda: undrawn[i] == 0 or stop.is_set())
        except BaseException as exc:  # raised again by the consumer, type and all
            failed[c % 2] = exc
            filled[c % 2].release()

    producer = threading.Thread(target=produce, name=PRODUCER_THREAD, daemon=True)
    producer.start()
    try:
        for c, lo in enumerate(range(0, T, width)):
            i, w = c % 2, min(width, T - lo)
            draw_claims(i, w, False)
            filled[i].acquire()
            if failed[i] is not None:
                raise failed[i]
            chunk = sets[:, :w]
            normalized_rows(slots[i, :, :w], chunk[:, :, :n_random])
            free[i].release()
            values = np.matmul(chunk, theta)[..., 0]  # each set by one product, as `_valued`
            vstar = values.max(axis=2)
            for step in range(w):
                yield chunk[:, step], values[:, step], vstar[:, step]
    finally:
        with lock:
            stop.set()
            lock.notify_all()
        for slot in free:
            slot.release()
        producer.join()


def _noise(instances, n_agents, T, noise_rngs) -> np.ndarray:
    """Reward noise of a batch, (T + 1) x lanes: row t holds every lane's noise at step t.

    Lane l reads stream l % n_agents of seed l // n_agents; row 0 is zero. A
    noise level whose draws z give d * noise_std^2 * sum(z^2) past the float
    range fails here, before any statistic sees them; below it, the reward
    sums and the squared norms of the explore estimates stay in range.
    """
    noise = np.zeros((T + 1, len(instances) * n_agents))
    for s, (instance, rngs) in enumerate(zip(instances, noise_rngs)):
        if instance.noise_std != 0:
            std = float(instance.noise_std)
            for i in range(n_agents):
                z = rngs[i].standard_normal(T)
                # a product of Python floats overflows to inf without a warning
                if not math.isfinite(std * std * float(z @ z) * instance.d):
                    raise InvalidConfigError(
                        f"noise_std={instance.noise_std!r} draws noise past the float range "
                        f"of the statistics (d={instance.d}, T={T})")
                noise[1:, s * n_agents + i] = instance.noise_std * z
    return noise


def _transposed(actions) -> np.ndarray:
    """The action sets of a batch, each as d x actions, stacked; each keeps the
    memory layout of its transpose, on which the bits of a product with it depend."""
    return np.stack([a.T for a in actions])


def _projectors(instances) -> np.ndarray:
    """U_k^T of every seed's subspaces, (seeds, K, m, d).

    Times an action set's A^T, or the stacked sets of `_transposed`, it gives
    coordinates U_k^T A^T with the bits of each subspace's own product
    `U_k.T @ A.T`: each (m, d) by (d, n) product keeps its shape and the memory
    layout of `basis_columns`.
    A single (K*m, d) product differs for m = 1.
    """
    first = instances[0]
    columns = np.stack([inst.subspaces.basis_columns for inst in instances])
    return columns.reshape(len(instances), first.K, first.m, first.d)


def _candidate_tables(instances, projectors):
    """The candidate rows of a fixed action set (`linalg.ucb_candidates`) in each
    subspace of each seed, (seeds, K, C), and their coordinates, (seeds, K, m, C).

    Built seed by seed from the seed's full projection U_k^T A^T, which gives each
    column the bits of a lane's own product; each row is padded to the widest row
    of the batch by repeats of its first candidate.
    """
    rows, coords = [], []
    for seed, instance in enumerate(instances):
        full = projectors[seed] @ instance.action_set.T
        rows.append(ucb_candidates(full))
        coords.append(np.take_along_axis(full, rows[-1][:, None, :], axis=2))
    slot = np.arange(max(r.shape[1] for r in rows))
    pads = [np.where(slot < r.shape[1], slot, 0) for r in rows]
    return (np.stack([r[:, pad] for r, pad in zip(rows, pads)]),
            np.stack([x[..., pad] for x, pad in zip(coords, pads)]))


# entries, lanes times slots, of each explore table the phased engine builds at
# once: a phase that explores long, as under the theoretical budget, or a batch of
# many lanes gets its tables a chunk of slots at a time, which bounds their memory;
# so does the gather of the regrets of a fixed set's plays
_EXPLORE_CHUNK = 4096


def _beta_table(params, dim: int, S: float) -> np.ndarray:
    """Confidence radius by play count; a count is below T, as it grows by at most
    one play per step from 0."""
    offset, log_term, scale = bounds.beta_constants(params.delta_value(), dim, params.lam, S)
    # `bounds.beta_of_count` over the counts, in its operation order; math.log1p
    # is mapped, as np.log1p rounds some counts to other bits, and over the array
    # itself: a list of the T ratios raised the peak memory of a Fig-1 run 0.6 MB
    ratio = np.arange(params.T) / scale
    logs = np.fromiter(map(math.log1p, ratio), dtype=float, count=params.T)
    return np.sqrt(log_term + dim * logs) + offset


# the most steps one look-ahead scores
_LOOKAHEAD = 32
# the steps in a row every counted lane must have kept its pick before a look-ahead
_SETTLED = 4


def _kept_exploit(stats, t, steps, lanes, cand, values, noise, beta, exploiting, played):
    """Exploit steps t, ..., t + steps - 1 of every lane from `stats`, kept over the
    block of its candidate rows `cand` of a fixed action set; each step's row goes
    into the (lanes, T) array `played`.

    `values` holds each lane's values of the set's rows, `noise` the noise rows
    by step and `beta` the radius by play count. Every step plays the
    optimistic rule. Only the lanes that `exploiting` indexes count for a
    block; the others play along, as rows to be discarded. With `exploiting`
    None every lane counts, and every lane has played each step from t = 1,
    so all share the radius of t - 1 plays. Once every counted lane has
    picked the same column for r >= `_SETTLED` steps in a row, the step and
    the next ones, min(2r, `_LOOKAHEAD`) in all, are scored at once
    (`LinUcbStats.lookahead`) as if every lane kept its pick p at each. Row 0
    is the step's own score, so the step is always played; so are the steps
    before the first row in which a counted lane picks another column, and
    those J plays enter the statistics as one step of J plays. That row then
    gives the picks of the next step. A block accepted whole doubles the
    next, and a changed pick starts r again.

    The picks equal the step-by-step picks up to rounding. A block's length
    depends on every counted lane of the batch, and J plays recorded at once
    round otherwise than J single plays, so on a near-tie a lane's picks can
    depend on the batch it runs in.

    Blocks need kept V^-1 X. Statistics that keep V^-1 apart, `oful`'s and
    those of m > 2 (`linalg._KEEP_INV_X_MAX_M`), play every step alone, in
    the in-place loop of `_inverse_exploit`.
    """
    if stats.inv is not None:
        _inverse_exploit(stats, t, steps, cand, values, noise, beta, played)
        return
    end = t + steps
    counted = slice(None) if exploiting is None else exploiting
    streak, last = 0, None  # steps in a row with the same counted picks, and their bytes
    pick = None  # the step's picks where a look-ahead row gave them
    while t < end:
        if pick is None:
            radius = beta[t - 1] if exploiting is None else beta[stats.count]
            pick = stats.scores(radius).argmax(axis=1)
        idx = cand[lanes, pick]
        a_val = values[lanes, idx]
        size, after = 1, None
        # comparing the bytes of the counted picks is the cheapest test of equal picks
        key = pick[counted].tobytes()
        streak = streak + 1 if key == last else 1
        last = key
        if streak >= _SETTLED:
            size = min(2 * streak, end - t, _LOOKAHEAD)
        if size > 1:
            rewards = a_val + noise[t:t + size]
            radii = (beta[t - 1:t - 1 + size, None] if exploiting is None
                     else beta[stats.count + np.arange(size)[:, None]])
            picks = stats.lookahead(pick, rewards, radii).argmax(axis=2)
            stay = (picks[1:, counted] == pick[counted]).all(axis=1)
            first = int(stay.argmin())  # the first row that leaves p, if any
            if not stay[first]:
                size, after = 1 + first, picks[1 + first]
            stats.add_play_coords(pick, rewards[:size])
            streak += size - 1
        else:
            stats.add_play_coords(pick, a_val + noise[t])
        played[:, t - 1:t - 1 + size] = idx[:, None]
        t += size
        pick = after


def _inverse_exploit(stats, t, steps, cand, values, noise, beta, played):
    """Exploit steps t, ..., t + steps - 1 of every lane, one play each, from
    statistics kept over the block of `cand` with V^-1 apart; the arguments are
    those of `_kept_exploit`, and each lane's radius is that of its play count.

    Each step does the operations of `LinUcbStats.scores` and of one play of
    `add_play_coords`, in their order and on arrays of their layouts, so every
    bit is theirs; but it does them in place, into buffers bound once per call.
    With flat lane offsets, each gather at a lane's pick, of its value,
    theta_hat^T x, w[pick] and column, is one 1-D take; the columns come from
    a C-ordered (lanes * n, d) copy of the block, and the rows played are
    taken from `cand` once per span of `_EXPLORE_CHUNK` entries.
    """
    n_lanes, d, n = stats.block.shape
    inv, quad, block = stats.inv, stats.quad, stats.block
    greedy = stats.terms[:, 0]  # theta_hat^T X, (lanes, n): with V^-1 apart, the one row
    flat_greedy = greedy.reshape(-1)  # a view: the kept arrays are C-ordered
    at = np.arange(n_lanes) * n  # flat offset of each lane's first column
    columns = np.ascontiguousarray(block.swapaxes(1, 2)).reshape(-1, d)
    rows = np.ravel(cand)
    row_values = np.take_along_axis(values, cand, axis=1).reshape(-1)
    # the step's buffers; the 2-d and 3-d views of one buffer share its memory
    score = np.empty((n_lanes, n))  # the scores, then the change of a kept array
    where = np.empty(n_lanes, dtype=np.int64)  # each lane's pick, then its flat index
    reward, lift = np.empty(n_lanes), np.empty((n_lanes, 1))
    flat_lift = lift.reshape(-1)
    x = np.empty((n_lanes, d))
    x_col = x[..., None]
    u = np.empty((n_lanes, d, 1))
    u_row = u[..., 0][:, None, :]  # (lanes, 1, d), the layout of u[..., None, :]
    w = np.empty((n_lanes, 1, n))
    flat_w, w_rows = w.reshape(-1), w[:, 0]
    den = np.empty((n_lanes, 1, 1))
    flat_den, den_col = den.reshape(-1), den[:, 0]
    scaled, u_by_den, outer = np.empty((n_lanes, n)), np.empty((n_lanes, 1, d)), np.empty_like(inv)
    # 0-d constants, which a ufunc takes faster than Python floats; the takes below
    # index in range, and mode "clip" skips the copy of `out` that "raise" makes
    zero, one = np.zeros(()), np.ones(())
    width = max(1, _EXPLORE_CHUNK // n_lanes)
    for lo in range(t, t + steps, width):
        span = range(lo, min(lo + width, t + steps))
        # every lane's radius at each step of the span, (steps, lanes, 1)
        radii = beta[stats.count + np.arange(len(span))[:, None]][..., None]
        picked = np.empty((len(span), n_lanes), dtype=np.int64)  # flat index of each pick
        for i, step in enumerate(span):
            # the optimistic scores, as `scores`
            np.maximum(quad, zero, out=score)
            np.sqrt(score, out=score)
            np.multiply(score, radii[i], out=score)
            np.add(greedy, score, out=score)
            score.argmax(axis=1, out=where)
            np.add(where, at, out=where)
            picked[i] = where
            row_values.take(where, out=reward, mode="clip")
            np.add(reward, noise[step], out=reward)
            # one play of each lane's pick, as `add_play_coords`
            flat_greedy.take(where, out=flat_lift, mode="clip")
            np.subtract(flat_lift, reward, out=flat_lift)
            columns.take(where, axis=0, out=x, mode="clip")
            np.matmul(inv, x_col, out=u)
            np.matmul(u_row, block, out=w)
            flat_w.take(where, out=flat_den, mode="clip")
            np.add(flat_den, one, out=flat_den)
            np.divide(w_rows, den_col, out=scaled)
            np.multiply(w_rows, scaled, out=score)
            np.subtract(quad, score, out=quad)
            np.multiply(lift, scaled, out=score)
            np.subtract(greedy, score, out=greedy)
            np.divide(u_row, den, out=u_by_den)
            np.multiply(u, u_by_den, out=outer)
            np.subtract(inv, outer, out=inv)
        stats.count += len(span)
        played[:, span.start - 1:span.stop - 1] = rows.take(picked).T


def _regret_of_rows(values, vstar, played, regret) -> None:
    """Write into the (lanes, T) array `regret` the instant regrets of the `played`
    rows of a fixed action set, vstar - value, `_EXPLORE_CHUNK` entries at a time."""
    lanes = np.arange(len(played))[:, None]
    width = max(1, _EXPLORE_CHUNK // len(played))
    for lo in range(0, played.shape[1], width):
        regret[:, lo:lo + width] = vstar[:, None] - values[lanes, played[:, lo:lo + width]]


# ---------------------------------------------------------------------------
# runners: one engine for the phased policies and one for genie and oful, each
# running a batch of seeds; the public runners are batches of one seed


def _run_subgoss(instances, params, gossip, noise_rngs, gossip_rngs, seeds, action_rngs) -> list:
    """Phased play of N agents on each seed of a batch; without a gossip graph, one
    agent holding all K subspaces. Per-seed arguments are lists over the batch.

    Every (seed, agent) pair is a lane, lane l being agent l % N of seed l // N,
    and each step plays the move of every lane in one set of array operations.
    A lane plays its explore slots, refreshes its estimates at its own switch
    step (`end_explore_update`, one call per group of lanes switching together)
    and then exploits its best-estimate subspace. Each phase's explore plays
    are laid out as a table at the phase start (`explore_slots`, a chunk of
    slots at a time). On a fixed set every explore play of the phase enters
    the explore statistics there, as blocks of plays, and its values and
    regrets are gathered at once, so the step loop starts at the first slot
    where a lane exploits; a resampled set is drawn every step, and its
    explore plays are read from the table and recorded step by step. A lane's
    exploit statistics are loaded into the step batch (`play`) at its switch
    step and saved at the phase end. A lane scores the rows `cand` of the
    action set. With a fixed set these are the candidates of its subspace
    (`_candidate_tables`, built once, the rows gathered at the switch step),
    and the statistics of each (lane, subspace) are kept over that subspace's
    candidate block, so a lane scores from the kept terms and the block travels
    with the statistics; the exploit steps between two switch slots, or up to
    the phase end, are one call of `_kept_exploit`, which plays settled picks in
    blocks for m <= 2 and every step alone for m > 2. With a resampled set a
    lane scores every row from scratch (`ucb_scores`), on coordinates `X`
    projected every step. Before the switch a lane's row of the batch is
    computed with the others and discarded. Each lane's sticky and active sets are rows of (lanes, K) bool masks, and the
    protocol between plays (`explore_plan`, `gossip_exchange`,
    `update_active_set`) acts on all lanes in one call each. Each lane draws
    from its own noise stream and each seed from its own gossip and action
    streams. Only the blocks of `_kept_exploit`, cut where any exploiting lane
    of the batch changes its pick, tie a result to its batch, and only through
    rounding: on a near-tie a pick can depend on the batch it runs in.

    Every play is recorded: `explored` once per phase, as each lane's explore
    slots are the first of the phase, and `played`, an explore play as its
    column's row of the action set. On a resampled set `inst_regret` is written
    with `played`; on a fixed set an exploit step writes every lane's `played`,
    the explore slots are written again at the phase end, and the regrets are
    read off `played` after the last phase (`_regret_of_rows`).
    """
    first = instances[0]
    K, m, T = first.K, first.m, params.T
    lam = params.lam
    resample = params.resample_actions_per_step
    n_agents = gossip.n_agents if gossip else 1
    n_seeds = len(instances)
    n_lanes = n_seeds * n_agents
    lanes = np.arange(n_lanes)
    lane_seed = lanes // n_agents
    n_actions = first.action_set.shape[0]

    for instance in instances:
        if not np.array_equal(instance.action_set[-K * m:], instance.subspaces.basis_columns):
            raise InvalidConfigError(
                "explore plays need the K*m basis columns as the last actions"
            )
    sets = _action_sets(instances, params, action_rngs)
    n_random = n_actions - K * m
    sticky = np.tile(sticky_sets(K, n_agents), (n_seeds, 1))
    active = sticky.copy()
    explore = ExploreStats((n_lanes, K, m))
    projectors = _projectors(instances)
    # explore-estimate norm of each lane's subspaces at its last refresh, -inf where none
    norms = np.full((n_lanes, K), -np.inf)
    best = np.zeros(n_lanes, dtype=np.int64)  # best-estimate id, the subspace a lane exploits
    if resample:
        cand = np.broadcast_to(np.arange(n_actions), (n_lanes, n_actions))
        X = np.zeros((n_lanes, m, n_actions))
        saved = LinUcbStats(m, lam, (n_lanes, K))
        play = LinUcbStats(m, lam, (n_lanes,))
    else:
        cand_table, coord_table = _candidate_tables(instances, projectors)
        cand = np.zeros((n_lanes, cand_table.shape[2]), dtype=cand_table.dtype)
        saved = LinUcbStats(m, lam, (n_lanes, K), coord_table[lane_seed])
        play = LinUcbStats(m, lam, (n_lanes,), saved.block[:, 0])
    noise = _noise(instances, n_agents, T, noise_rngs)
    beta = _beta_table(params, m, first.s_bound)
    inst_regret = np.empty((n_lanes, T))
    explored = np.empty((n_lanes, T), dtype=bool)
    played = np.empty((n_lanes, T), dtype=np.min_scalar_type(n_actions - 1))

    def lane_coords(ls):
        # U_k^T A^T of the step's resampled set for each lane of ls in its best
        # subspace k. Seed by seed, so that the lanes of a seed share its A^T: a
        # gather would copy it once per lane
        for seed in dict.fromkeys(lane_seed[ls].tolist()):
            mine = ls[lane_seed[ls] == seed]
            X[mine] = projectors[seed, best[mine]] @ actions[seed].T

    chunk_slots = max(1, _EXPLORE_CHUNK // n_lanes)

    def explore_chunks():
        # the phase's explore table, chunk_slots slots at a time: the slots, and each
        # lane's subspace ids, columns and action-set rows there, (lanes, slots). The
        # rows index the same values array as vstar, which never falls below them
        for lo in range(0, width, chunk_slots):
            chunk = np.arange(lo, min(lo + chunk_slots, width))
            ids, cols = explore_slots(order, n_active, phase_count, chunk)
            yield chunk, ids, cols, n_random + ids * m + cols

    def refresh(group):
        if group.size:
            ids = order[group]
            index = (group[:, None], ids)
            bases = projectors[lane_seed[group][:, None], ids].swapaxes(-1, -2)  # the U_k
            estimated, best[group] = end_explore_update(explore[index], bases, ids)
            norms[group] = -np.inf
            norms[index] = estimated  # a padding repeat writes its id's own norm again

    # per phase, every lane's best id and active mask, kept as lists: small arrays
    # kept for the whole run fragment the heap and raise the peak memory
    recommendations, active_history = [], []
    try:
        if not resample:
            actions, values, vstar = next(sets)
            values, vstar = values[lane_seed], vstar[lane_seed]
        n_gossip = 0
        j = 1
        start = 1
        while start <= T:
            length = phase_length(params.b, j)
            end_full = start + length - 1
            end = min(end_full, T)
            slots = end - start + 1

            # a phase explores at most its slots within T; clipped here, the budget
            # and length of a huge b stay in int64
            budget = explore_budget(params.b, j, m, params.explore_budget_mode)
            n_exp = explore_plan(active, min(budget, slots), slots)
            switches = {s: lanes[n_exp == s] for s in set(n_exp.tolist()) if s < slots}
            n_active = active.sum(axis=1)
            # active ids in ascending order, each row padded by repeats of its last id;
            # np.nonzero lists every lane's ids in order, lane after lane
            held = np.nonzero(active)[1]
            order = held[(np.cumsum(n_active) - n_active)[:, None]
                         + np.minimum(np.arange(n_active.max()), n_active[:, None] - 1)]
            explorers, exploiters = lanes, lanes[:0]
            explored[:, start - 1:end] = np.arange(slots) < n_exp[:, None]
            width = int(n_exp.max())
            phase_count = explore.count.copy()
            chunks = explore_chunks()
            if not resample:
                # on a fixed set every explore play of the phase enters the statistics
                # here: a lane reads them only at its refresh, after its explore slots
                for chunk, ids, cols, rows in chunks:
                    mine = chunk < n_exp[:, None]
                    rewards = values[lanes[:, None], rows] + noise[start + chunk].T
                    explore.add_play((np.broadcast_to(lanes[:, None], mine.shape)[mine],
                                      ids[mine], cols[mine]), rewards[mine])

            # a run of exploit steps on a fixed set ends before the next switch slot
            block_ends = sorted(switches) + [slots]
            s = 0 if resample else int(n_exp.min())
            while s < slots:
                t = start + s
                steps = 1
                if resample:
                    actions, values, vstar = next(sets)
                    values, vstar = values[lane_seed], vstar[lane_seed]
                switching = switches.get(s)
                if switching is not None:
                    refresh(switching)
                    play.copy_lanes(switching, saved, (switching, best[switching]))
                    explorers, exploiters = lanes[n_exp > s], lanes[n_exp <= s]
                    if not resample:
                        cand[switching] = cand_table[lane_seed[switching], best[switching]]
                if exploiters.size and resample:  # a set read for one step
                    lane_coords(exploiters)
                    pick = ucb_scores(play, X, beta[play.count]).argmax(axis=1)
                    idx = cand[lanes, pick]
                    a_val = values[lanes, idx]
                    play.add_play_coords(X[lanes, :, pick], a_val + noise[t])
                    inst_regret[:, t - 1] = vstar - a_val
                    played[:, t - 1] = idx
                elif exploiters.size:
                    steps = block_ends[bisect.bisect_right(block_ends, s)] - s
                    counted = exploiters if exploiters.size < n_lanes else slice(None)
                    _kept_exploit(play, t, steps, lanes, cand, values, noise, beta, counted, played)
                if resample and explorers.size:
                    if s % chunk_slots == 0:
                        _, ids, cols, rows = next(chunks)
                    i = s % chunk_slots
                    k, col, row = ids[explorers, i], cols[explorers, i], rows[explorers, i]
                    a_val = values[explorers, row]
                    explore.add_play((explorers, k, col), a_val + noise[t, explorers])
                    inst_regret[explorers, t - 1] = vstar[explorers] - a_val
                    played[explorers, t - 1] = row
                s += steps

            refresh(lanes[n_exp == slots])
            if not resample:
                # the explore slots, which the exploit steps wrote over for every lane
                for chunk, _, _, rows in explore_chunks():
                    span = slice(start - 1 + chunk[0], start + chunk[-1])
                    np.copyto(played[:, span], rows, where=chunk < n_exp[:, None], casting="unsafe")
            switched = lanes[n_exp < slots]
            saved.copy_lanes((switched, best[switched]), play, switched)

            recommendations.append(best.tolist())
            if end_full <= T and n_agents > 1:
                n_gossip += 1
                pulled = gossip_exchange(best.reshape(n_seeds, n_agents), gossip, gossip_rngs)
                update_active_set(active, sticky, norms, pulled.ravel())
            active_history.append(active.tolist())
            j += 1
            start = end_full + 1
    finally:
        sets.close()

    if not resample:
        _regret_of_rows(values, vstar, played, inst_regret)
    active_sets = [[tuple(np.flatnonzero(lane).tolist()) for lane in phase]
                   for phase in active_history]
    results = []
    for s, (instance, seed) in enumerate(zip(instances, seeds)):
        mine = slice(s * n_agents, (s + 1) * n_agents)
        recs = [phase[mine] for phase in recommendations]
        results.append(RunResult(
            inst_regret=inst_regret[mine],
            explored=explored[mine],
            played=played[mine],
            seed=seed,
            n_phases=j - 1,
            freeze_phase=detect_freeze(recs, instance.true_index),
            recommendations=recs,
            comm_count=np.full(n_agents, n_gossip, dtype=np.int64),
            active_history=[phase[mine] for phase in active_sets],
        ))
    return results


def _run_linucb(instances, params, noise_rngs, seeds, action_rngs, k, track_coverage=False) -> list:
    """Optimistic play from t = 1 in the coordinates of subspace k, or of R^d when k
    is None, one lane per seed of a batch. Per-seed arguments are lists over the batch.

    Every lane plays every step, so all lanes share one play count and one radius.
    On a fixed set the statistics are kept over the block of scored columns, and
    all steps are one call of `_kept_exploit`, which reads the scores off their
    kept terms: for m <= 2 it plays settled picks in blocks, and with V^-1 kept
    apart, as for `oful`, it plays every step alone in one in-place loop
    (`_inverse_exploit`); the regrets are read off `played` after it. A
    resampled set, or the coverage check, which needs theta_hat, scores from
    scratch (`ucb_scores`) step by step.
    """
    first = instances[0]
    T = params.T
    dim = first.d if k is None else first.m
    lam = params.lam
    resample = params.resample_actions_per_step
    kept = not (resample or track_coverage)
    n_lanes = len(instances)
    lanes = np.arange(n_lanes)
    sets = _action_sets(instances, params, action_rngs)
    noise = _noise(instances, 1, T, [[rng] for rng in noise_rngs])
    projectors = None if k is None else _projectors(instances)[:, k]
    beta = _beta_table(params, dim, first.s_bound)
    if track_coverage:
        # V = lam*I + sum x x^T, kept here only for the coverage check
        theta_k = np.stack([
            inst.subspaces.bases[k].columns.T @ inst.theta_star for inst in instances
        ])
        gram = np.broadcast_to(lam * np.eye(dim), (n_lanes, dim, dim)).copy()
        covered = np.ones(n_lanes, dtype=bool)

    def scored(actions):
        # the rows each lane scores and their coordinates
        X = _transposed(actions)
        # scores are faster on C-ordered coordinates
        X = np.ascontiguousarray(X) if k is None else projectors @ X
        if resample:
            return np.broadcast_to(np.arange(X.shape[2]), (n_lanes, X.shape[2])), X
        # only the candidates can win; oful's m = d is above 2, so it keeps every row
        cand = ucb_candidates(X)
        return cand, np.take_along_axis(X, cand[:, None, :], axis=2)

    inst_regret = np.empty((n_lanes, T))
    played = np.empty((n_lanes, T), dtype=np.min_scalar_type(first.action_set.shape[0] - 1))
    try:
        actions, values, vstar = next(sets)
        cand, X = scored(actions)
        stats = LinUcbStats(dim, lam, (n_lanes,), X if kept else None)
        if kept:
            _kept_exploit(stats, 1, T, lanes, cand, values, noise, beta, None, played)
            _regret_of_rows(values, vstar, played, inst_regret)
        else:
            for t in range(1, T + 1):
                if resample and t > 1:
                    actions, values, vstar = next(sets)
                    cand, X = scored(actions)
                bval = beta[t - 1]
                pick = ucb_scores(stats, X, bval).argmax(axis=1)
                x = X[lanes, :, pick]
                if track_coverage:
                    diff = stats.theta_hat() - theta_k
                    covered &= ~(np.sqrt((diff[:, None, :] @ gram @ diff[:, :, None])[:, 0, 0])
                                 > bval)
                    gram += x[:, :, None] * x[:, None, :]
                idx = cand[lanes, pick]
                a_val = values[lanes, idx]
                stats.add_play_coords(x, a_val + noise[t])
                inst_regret[:, t - 1] = vstar - a_val
                played[:, t - 1] = idx
    finally:
        sets.close()

    return [
        RunResult(
            inst_regret=inst_regret[lane:lane + 1],
            explored=np.zeros((1, T), dtype=bool),
            played=played[lane:lane + 1],
            seed=seed,
            n_phases=0,
            freeze_phase=None,
            recommendations=[],
            comm_count=np.zeros(1, dtype=np.int64),
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
