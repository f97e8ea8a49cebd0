"""Multi-seed orchestration: config parsing, policy dispatch, aggregation, CSV output.

The whole pipeline is a pure function of (config, master_seed). Every random
stream is derived from a seed-sequence keyed on (master_seed, seed_index, role,
agent_id), so runs are bit-reproducible and agents are statistically independent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .environment import compute_gap, generate_instance
from .errors import DegenerateInstanceError, InvalidConfigError, SubgossError
from .network import GossipMatrix, complete_graph, load_gossip
from .policies import (
    PolicyParams, RunResult, _is_int, _is_real, _run_linucb, _run_subgoss, check_fields,
)

# rng stream roles
_ROLE_INSTANCE = 0
_ROLE_NOISE = 1
_ROLE_GOSSIP = 2
_ROLE_ACTIONS = 3

# lanes per batch of `run`: past about a hundred lanes a step's array work
# outweighs its fixed cost, and the batch's noise, regret and play arrays
# take 18 bytes per lane per step (up to 256 actions). With candidate columns,
# 64 multi N=4 seeds at T=2e4 ran in 1.98 s at 128 lanes and 1.64 s at 256
# (2 cores, numpy 2.4), but 256 lanes doubles those arrays and no benchmark
# workload has more than 128 lanes
_BATCH_LANES = 128

POLICIES = ("subgoss_multi", "subgoss_single", "oful", "genie")

# (fields, test, requirement) of the RunConfig fields that PolicyParams lacks;
# the shared fields are checked by building the config's PolicyParams
_FIELD_CHECKS = (
    (("d", "K"), lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
    (("m", "N", "n_seeds"), lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    (("master_seed", "true_index"), lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    (("n_extra_actions",), lambda v: v is None or _is_int(v) and v >= 1, "null or an integer >= 1"),
    (("s_bound",), lambda v: _is_real(v) and v > 0, "a number > 0"),
    (("noise_std",), lambda v: _is_real(v) and v >= 0, "a number >= 0"),
    (("track_coverage",), lambda v: isinstance(v, bool), "true or false"),
    (("gossip",), lambda v: isinstance(v, str), "'complete' or a file path"),
    (("policy",), lambda v: v in POLICIES, f"one of {POLICIES}"),
)


@dataclass(frozen=True)
class RunConfig:
    d: int
    m: int
    K: int
    T: int
    N: int = 1
    b: float = 2.0
    lam: float = 1.0
    delta: float | None = None  # default min(0.5, 1/T)
    noise_std: float = 1.0
    s_bound: float = 1.0
    n_extra_actions: int | None = None  # default 5*d
    explore_budget_mode: str = "experimental"
    gossip: str = "complete"  # or a path to a JSON matrix
    policy: str = "subgoss_multi"
    n_seeds: int = 30
    master_seed: int = 0
    true_index: int = 0
    track_coverage: bool = False
    resample_actions_per_step: bool = False

    def __post_init__(self):
        """Type and domain checks of every field, so a bad config fails before any run."""
        check_fields(self, _FIELD_CHECKS)
        self.policy_params()
        # with 2m > d any two m-dim subspaces of R^d share a direction
        if 2 * self.m > self.d or self.true_index >= self.K:
            raise InvalidConfigError(
                f"need m < d, indeed 2m <= d, and true_index < K, got m={self.m}, "
                f"d={self.d}, true_index={self.true_index}, K={self.K}"
            )
        if self.policy == "subgoss_multi":
            if self.N < 2:
                raise InvalidConfigError("subgoss_multi needs N >= 2")
            if self.K % self.N != 0:
                raise InvalidConfigError(
                    f"K={self.K} must be an integral multiple of N={self.N}"
                )

    @property
    def extra_actions(self) -> int:
        return 5 * self.d if self.n_extra_actions is None else self.n_extra_actions

    def policy_params(self) -> PolicyParams:
        return PolicyParams(
            T=self.T,
            b=self.b,
            lam=self.lam,
            delta=self.delta,
            explore_budget_mode=self.explore_budget_mode,
            resample_actions_per_step=self.resample_actions_per_step,
        )


def config_from_dict(data: dict) -> RunConfig:
    data = dict(data)
    if "lambda" in data:
        data["lam"] = data.pop("lambda")
    unknown = set(data) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise InvalidConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        return RunConfig(**data)
    except TypeError as exc:
        raise InvalidConfigError(str(exc)) from exc


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidConfigError(f"config {path} must hold a JSON object")
    return config_from_dict(data)


def build_gossip(config: RunConfig) -> GossipMatrix | None:
    if config.policy != "subgoss_multi":
        return None
    if config.gossip == "complete":
        return complete_graph(config.N)
    g = load_gossip(config.gossip)
    if g.n_agents != config.N:
        raise InvalidConfigError(
            f"gossip matrix is {g.n_agents}x{g.n_agents}, config has N={config.N}"
        )
    return g


def _rng(master_seed: int, seed_index: int, role: int, agent: int = 0):
    return np.random.default_rng(
        np.random.SeedSequence((master_seed, seed_index, role, agent))
    )


def _instance(config: RunConfig, seed_index: int):
    return generate_instance(
        d=config.d,
        m=config.m,
        K=config.K,
        true_index=config.true_index,
        n_actions=config.extra_actions,
        noise_std=config.noise_std,
        s_bound=config.s_bound,
        rng=_rng(config.master_seed, seed_index, _ROLE_INSTANCE),
    )


def _run_batch(config: RunConfig, seed_indices: list) -> list:
    """Seeds of a config run together as one batch of lanes, each seed with a fresh
    instance and fresh rng streams."""
    params = config.policy_params()
    instances = [_instance(config, s) for s in seed_indices]
    ms = config.master_seed
    multi = config.policy == "subgoss_multi"
    noise_rngs = [
        [_rng(ms, s, _ROLE_NOISE, i) for i in range(config.N if multi else 1)]
        for s in seed_indices
    ]
    action_rngs = [_rng(ms, s, _ROLE_ACTIONS) for s in seed_indices]
    if config.policy in ("genie", "oful"):
        genie = config.policy == "genie"
        return _run_linucb(
            instances, params, [rngs[0] for rngs in noise_rngs], seed_indices, action_rngs,
            config.true_index if genie else None, genie and config.track_coverage,
        )
    gossip_rngs = [_rng(ms, s, _ROLE_GOSSIP) for s in seed_indices]
    return _run_subgoss(
        instances, params, build_gossip(config), noise_rngs, gossip_rngs, seed_indices,
        action_rngs,
    )


def run_one_seed(config: RunConfig, seed_index: int) -> RunResult:
    """One full simulation: fresh instance, fresh rng streams, chosen policy; a batch of one."""
    return _run_batch(config, [seed_index])[0]


def run(config: RunConfig) -> list:
    """All seeds of a config, run as lanes in batches of at most _BATCH_LANES lanes.

    Each seed's result is the one `run_one_seed` gives it, up to the rounding of
    the exploit blocks on a fixed action set, which depends on the batch: on a
    near-tie a pick can differ (see `policies._kept_exploit`).
    """
    per_seed = config.N if config.policy == "subgoss_multi" else 1
    size = max(1, _BATCH_LANES // per_seed)
    seeds = list(range(config.n_seeds))
    return [r for lo in range(0, len(seeds), size) for r in _run_batch(config, seeds[lo:lo + size])]


def instance_gap(config: RunConfig, seed_index: int = 0) -> float:
    """Gap of the instance a given seed generates (for bound evaluation).

    theta_star, and so every gap, scales with s_bound, so a zero gap is a config error.
    """
    try:
        return compute_gap(_instance(config, seed_index)).delta
    except DegenerateInstanceError as exc:
        raise InvalidConfigError(
            f"s_bound={config.s_bound} leaves the seed-{seed_index} instance with a zero gap: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# aggregation


@dataclass(frozen=True)
class Aggregate:
    mean_curve: np.ndarray
    ci95_low: np.ndarray
    ci95_high: np.ndarray
    n_curves: int


def aggregate(results: list) -> Aggregate:
    """Mean cumulative-regret curve with normal-approximation 95% intervals.

    Each seed gives one curve, the mean over its agents.
    """
    curves = [r.cum_regret().mean(axis=0) for r in results]
    if len(curves) < 2:
        raise InvalidConfigError("confidence interval needs at least 2 curves")
    stack = np.vstack(curves)
    mean = stack.mean(axis=0)
    stderr = stack.std(axis=0, ddof=1) / np.sqrt(stack.shape[0])
    return Aggregate(
        mean_curve=mean,
        ci95_low=mean - 1.96 * stderr,
        ci95_high=mean + 1.96 * stderr,
        n_curves=stack.shape[0],
    )


# ---------------------------------------------------------------------------
# CSV emission


def _write_csv(path, header: str, blocks) -> None:
    """Write the header line, then each block, an iterable of LF-terminated lines."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(header + "\n")
            for block in blocks:
                fh.writelines(block)
    except OSError as exc:
        raise SubgossError(f"cannot write {path}: {exc}") from exc


def _raw_blocks(results):
    """The rows "t,seed,agent,inst_regret,cum_regret" of each (seed, agent) block as
    one string, one block at a time, so that memory stays flat in the seed count.

    Each distinct instant regret of a block is formatted once, keyed by its bits
    so that 0.0 and -0.0 stay apart: the phased policies repeat few values (about
    15 distinct of 2000 on a fixed action set, 300 on resampled ones); on a block
    whose values are all distinct, as oful gives on resampled sets, this is slower
    than formatting every value in the template. The cumulative column fills a
    T-row template by one % operation.
    """
    templates = {}  # T -> the T-row template
    for r in results:
        if r.T not in templates:
            templates[r.T] = "".join(f"{t},%s,%.12e\n" for t in range(1, r.T + 1))
        cum = r.cum_regret()
        for i in range(r.n_agents):
            bits = np.ascontiguousarray(r.inst_regret[i]).view(np.int64)
            distinct, where = np.unique(bits, return_inverse=True)
            prefix = f"{r.seed},{i},"
            heads = [f"{prefix}{x:.12e}" for x in distinct.view(np.float64).tolist()]
            cells = [None] * (2 * r.T)
            cells[::2] = np.array(heads, dtype=object)[where].tolist()
            cells[1::2] = cum[i].tolist()
            yield (templates[r.T] % tuple(cells),)


def emit_csv(obj, path) -> None:
    """Aggregate -> t,mean,ci_low,ci_high; raw results -> t,seed,agent,inst_regret,cum_regret."""
    if isinstance(obj, Aggregate):
        columns = (obj.mean_curve.tolist(), obj.ci95_low.tolist(), obj.ci95_high.tolist())
        rows = [f"{t},{a:.12e},{lo:.12e},{hi:.12e}\n"
                for t, (a, lo, hi) in enumerate(zip(*columns), 1)]
        _write_csv(path, "t,mean,ci_low,ci_high", [rows])
    else:
        _write_csv(path, "t,seed,agent,inst_regret,cum_regret", _raw_blocks(obj))
