"""Multi-seed orchestration: config parsing, policy dispatch, aggregation, CSV output.

The whole pipeline is a pure function of (config, master_seed). Every random
stream is derived from a seed-sequence keyed on (master_seed, seed_index, role,
agent_id), so runs are bit-reproducible and agents are statistically independent.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .environment import compute_gap, generate_instance
from .errors import InvalidConfigError, SubgossError
from .network import GossipMatrix, complete_graph, validate as validate_gossip
from .policies import (
    PolicyParams,
    RunResult,
    run_genie,
    run_oful_baseline,
    run_single_agent_subgoss,
    run_subgoss_multi,
)

# rng stream roles
_ROLE_INSTANCE = 0
_ROLE_NOISE = 1
_ROLE_GOSSIP = 2
_ROLE_ACTIONS = 3

POLICIES = ("subgoss_multi", "subgoss_single", "oful", "genie")


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return _is_int(x) or isinstance(x, (float, np.floating)) and math.isfinite(x)


# (fields, test, requirement) of every RunConfig field
_FIELD_CHECKS = (
    (("d", "K"), lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
    (("m", "T", "N", "n_seeds"), lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    (("master_seed", "true_index"), lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    (("n_extra_actions",), lambda v: v is None or _is_int(v) and v >= 1, "null or an integer >= 1"),
    (("b",), lambda v: _is_real(v) and v > 1, "a number > 1"),
    (("lam", "s_bound"), lambda v: _is_real(v) and v > 0, "a number > 0"),
    (("noise_std",), lambda v: _is_real(v) and v >= 0, "a number >= 0"),
    (("track_coverage", "log_plays", "resample_actions_per_step"),
     lambda v: isinstance(v, bool), "true or false"),
    (("gossip",), lambda v: isinstance(v, str), "'complete' or a file path"),
    (("explore_budget_mode",), lambda v: v in ("theoretical", "experimental"),
     "'theoretical' or 'experimental'"),
    (("delta_mode",), lambda v: v in ("one_over_T", "fixed"), "'one_over_T' or 'fixed'"),
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
    delta_mode: str = "one_over_T"  # or "fixed"
    delta: float | None = None
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
    log_plays: bool = False
    resample_actions_per_step: bool = False

    def __post_init__(self):
        """Type and domain checks of every field, so a bad config fails before any run."""
        for names, ok, need in _FIELD_CHECKS:
            for name in names:
                value = getattr(self, name)
                if not ok(value):
                    raise InvalidConfigError(f"{name} must be {need}, got {value!r}")
        if self.m >= self.d or self.true_index >= self.K:
            raise InvalidConfigError(
                f"need m < d and true_index < K, got m={self.m}, d={self.d}, "
                f"true_index={self.true_index}, K={self.K}"
            )
        if self.delta_mode == "fixed" and not (_is_real(self.delta) and 0 < self.delta < 1):
            raise InvalidConfigError("fixed delta_mode needs delta in (0, 1)")
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
            delta=self.delta if self.delta_mode == "fixed" else None,
            explore_budget_mode=self.explore_budget_mode,
            s_bound=self.s_bound,
            log_plays=self.log_plays,
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
        g = complete_graph(config.N)
    else:
        try:
            with open(config.gossip) as fh:
                g = GossipMatrix(np.asarray(json.load(fh), dtype=float))
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidConfigError(
                f"cannot read gossip matrix {config.gossip}: {exc}"
            ) from exc
        if g.n_agents != config.N:
            raise InvalidConfigError(
                f"gossip matrix is {g.n_agents}x{g.n_agents}, config has N={config.N}"
            )
    issues = validate_gossip(g)
    if issues:
        raise InvalidConfigError("invalid gossip matrix: " + "; ".join(issues))
    return g


def _rng(master_seed: int, seed_index: int, role: int, agent: int = 0):
    return np.random.default_rng(
        np.random.SeedSequence((master_seed, seed_index, role, agent))
    )


def run_one_seed(config: RunConfig, seed_index: int) -> RunResult:
    """One full simulation: fresh instance, fresh rng streams, chosen policy."""
    params = config.policy_params()
    inst_rng = _rng(config.master_seed, seed_index, _ROLE_INSTANCE)
    instance = generate_instance(
        d=config.d,
        m=config.m,
        K=config.K,
        true_index=config.true_index,
        n_actions=config.extra_actions,
        noise_std=config.noise_std,
        s_bound=config.s_bound,
        rng=inst_rng,
    )
    action_key = config.master_seed * 1_000_003 + seed_index * 101 + _ROLE_ACTIONS

    if config.policy == "subgoss_multi":
        gossip = build_gossip(config)
        noise_rngs = [
            _rng(config.master_seed, seed_index, _ROLE_NOISE, i) for i in range(config.N)
        ]
        gossip_rng = _rng(config.master_seed, seed_index, _ROLE_GOSSIP)
        return run_subgoss_multi(
            instance, params, gossip, noise_rngs, gossip_rng,
            seed=seed_index, action_key=action_key,
        )
    noise_rng = _rng(config.master_seed, seed_index, _ROLE_NOISE, 0)
    if config.policy == "subgoss_single":
        return run_single_agent_subgoss(
            instance, params, noise_rng, seed=seed_index, action_key=action_key
        )
    if config.policy == "genie":
        return run_genie(
            instance, params, noise_rng, seed=seed_index, action_key=action_key,
            track_coverage=config.track_coverage,
        )
    return run_oful_baseline(
        instance, params, noise_rng, seed=seed_index, action_key=action_key
    )


def _worker(args):
    config, seed_index = args
    return run_one_seed(config, seed_index)


def run(config: RunConfig) -> list:
    """All seeds of a config; SUBGOSS_WORKERS > 1 dispatches seeds to a process pool."""
    seeds = list(range(config.n_seeds))
    raw = os.environ.get("SUBGOSS_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise InvalidConfigError(f"SUBGOSS_WORKERS must be an integer, got {raw!r}") from None
    if workers > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_worker, [(config, s) for s in seeds]))
    else:
        results = [run_one_seed(config, s) for s in seeds]
    return results


def instance_gap(config: RunConfig, seed_index: int = 0) -> float:
    """Gap of the instance a given seed generates (for bound evaluation)."""
    inst_rng = _rng(config.master_seed, seed_index, _ROLE_INSTANCE)
    instance = generate_instance(
        d=config.d, m=config.m, K=config.K, true_index=config.true_index,
        n_actions=config.extra_actions, noise_std=config.noise_std,
        s_bound=config.s_bound, rng=inst_rng,
    )
    return compute_gap(instance).delta


# ---------------------------------------------------------------------------
# aggregation


@dataclass(frozen=True)
class Aggregate:
    mean_curve: np.ndarray
    ci95_low: np.ndarray
    ci95_high: np.ndarray
    mode: str  # "agent_mean" or "pooled"
    n_curves: int


def aggregate(results: list, mode: str = "agent_mean") -> Aggregate:
    """Mean cumulative-regret curve with normal-approximation 95% intervals.

    "agent_mean" first averages across agents within each seed (the protocol
    used for reported curves), "pooled" treats each agent trajectory as a sample.
    """
    if mode not in ("agent_mean", "pooled"):
        raise InvalidConfigError(f"unknown aggregation mode {mode!r}")
    curves = []
    for r in results:
        cum = r.cum_regret()
        if mode == "agent_mean":
            curves.append(cum.mean(axis=0))
        else:
            curves.extend(cum)
    if len(curves) < 2:
        raise InvalidConfigError("confidence interval needs at least 2 curves")
    stack = np.vstack(curves)
    mean = stack.mean(axis=0)
    stderr = stack.std(axis=0, ddof=1) / np.sqrt(stack.shape[0])
    return Aggregate(
        mean_curve=mean,
        ci95_low=mean - 1.96 * stderr,
        ci95_high=mean + 1.96 * stderr,
        mode=mode,
        n_curves=stack.shape[0],
    )


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(x: float) -> str:
    return format(float(x), ".12e")


def emit_csv(obj, path) -> None:
    """Aggregate -> t,mean,ci_low,ci_high; raw results -> t,seed,agent,inst_regret,cum_regret."""
    try:
        with open(path, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if isinstance(obj, Aggregate):
                writer.writerow(["t", "mean", "ci_low", "ci_high"])
                for t in range(len(obj.mean_curve)):
                    writer.writerow(
                        [t + 1, _fmt(obj.mean_curve[t]), _fmt(obj.ci95_low[t]),
                         _fmt(obj.ci95_high[t])]
                    )
            else:
                writer.writerow(["t", "seed", "agent", "inst_regret", "cum_regret"])
                for r in obj:
                    cum = r.cum_regret()
                    for i in range(r.n_agents):
                        for t in range(r.T):
                            writer.writerow(
                                [t + 1, r.seed, i, _fmt(r.inst_regret[i, t]),
                                 _fmt(cum[i, t])]
                            )
    except OSError as exc:
        raise SubgossError(f"cannot write {path}: {exc}") from exc


def parse_aggregate_csv(path) -> Aggregate:
    """Inverse of emit_csv for aggregate files (used for round-trip checks)."""
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["t", "mean", "ci_low", "ci_high"]:
            raise InvalidConfigError(f"{path} is not an aggregate CSV")
        rows = [(float(a), float(b), float(c)) for _, a, b, c in reader]
    mean = np.array([r[0] for r in rows])
    return Aggregate(
        mean_curve=mean,
        ci95_low=np.array([r[1] for r in rows]),
        ci95_high=np.array([r[2] for r in rows]),
        mode="agent_mean",
        n_curves=0,
    )
