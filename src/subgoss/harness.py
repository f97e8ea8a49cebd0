"""Multi-seed orchestration: config parsing, policy dispatch, aggregation, CSV output.

The whole pipeline is a pure function of (config, master_seed). Every random
stream is derived from a seed-sequence keyed on (master_seed, seed_index, role,
agent_id), so runs are bit-reproducible and agents are statistically independent.
"""

from __future__ import annotations

import functools
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
    """Write the header line, then each block, a bytes-like object of LF-terminated
    ASCII lines: a row of text, or a raw block's byte array.

    Text rows go one at a time: the aggregate or `bounds` rows joined into one
    string and encoded made two transient copies of the file, and raised the peak
    RSS of the `cli-seeds` benchmark by about 3 MB.
    """
    try:
        with open(path, "wb") as fh:
            fh.write(f"{header}\n".encode())
            for block in blocks:
                fh.write(block)
    except OSError as exc:
        raise SubgossError(f"cannot write {path}: {exc}") from exc


# The raw CSV's fixed-width class: +0.0 and the doubles in [1e-99, 1e99), whose
# `.12e` field is the 18 bytes "d.dddddddddddde±XX". For such an x, take
# e = floor(log10 x), k = 12 - e and y = fl(x * fl(10^k)). The power is
# correctly rounded (2^-53 relative) and so is the product (half an ulp of
# y < 2^44), so while y < 10^13 it lies within 2^-53 * 10^13 + 2^-10 < 2.1e-3
# of x * 10^k. Python's `.12e` rounds that exact value half-to-even, so
# M = rint(y) is its rounding whenever y lies _HALF_WINDOW or more from every
# half-integer, and the field is M's 13 digits and e whenever also
# 10^12 <= y and M < 10^13. (If e came out one too high, such a y puts
# x * 10^k above 10^12 - 2.1e-3, which `.12e` carries to "1.000000000000e{e}",
# M's field.) The other values, about 1% of those of real runs, take
# f"{x:.12e}".
_FIXED_LO, _FIXED_HI = 1e-99, 1e99
_HALF_WINDOW = 5e-3  # more than twice the error bound
# a field and its separator ("," after inst_regret, LF after cum_regret): the
# first digit and ".", three groups of four digits, "e±XX", each as one word
_FIELD = np.dtype({
    "names": ["lead", "g1", "g2", "g3", "exp", "sep"],
    "formats": ["<u2", "<u4", "<u4", "<u4", "<u4", "u1"],
    "offsets": [0, 2, 6, 10, 14, 18],
    "itemsize": 19,
})


@functools.cache
def _field_tables():
    """Built on the first raw write: the words "d." of 0..9 and "dddd" of 0..9999,
    and for j = e + 100, e in -100..99, the word "e±XX" and the double nearest
    10^(12 - e). e = -100 only comes with M = 10^13, so its "e-00" is never written.

    The digit table is filled by copies, not arithmetic: each numpy kernel run
    for the first time in a process adds its code pages to the resident size."""
    chars = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    digits[..., 0] = chars[:, None, None, None]
    digits[..., 1] = chars[:, None, None]
    digits[..., 2] = chars[:, None]
    digits[..., 3] = chars
    return (
        np.frombuffer("".join(f"{d}." for d in range(10)).encode(), "<u2"),
        digits.reshape(-1).view("<u4"),
        np.frombuffer(("e-00" + "".join(f"e{e:+03d}" for e in range(-99, 100))).encode(), "<u4"),
        np.array([float(f"1e{12 - e}") for e in range(-100, 100)]),
    )


def _fixed_fields(values: np.ndarray) -> np.ndarray:
    """`f"{x:.12e}"` of each value, as a _FIELD record with separator "," along
    column 0 of the last axis and LF along column 1; every value must be +0.0 or
    in [1e-99, 1e99)."""
    lead, digits, exps, powers = _field_tables()
    nonzero = values != 0
    x = np.where(nonzero, values, 1.0)
    # e + 100, but maybe one off for x within a relative 1e-13 of a power of
    # ten, which the range check on y and M then catches
    j = (np.log10(x) + 100).astype(np.intp)
    y = x * powers.take(j)
    m = np.rint(y)
    exact = (y >= 1e12) & (m < 1e13) & (np.abs(y - m) <= 0.5 - _HALF_WINDOW)
    m *= nonzero & exact  # zeros get "0.000000000000e+00"
    head = np.floor((m + 0.5) * 1e-8)  # the first 5 digits, exactly
    tail = (m - head * 1e8).astype(np.int32)  # and the last 8
    head = head.astype(np.int32)
    out = np.empty(values.shape, _FIELD)
    hi = head // 10_000
    out["lead"] = lead.take(hi)
    out["g1"] = digits.take(head - hi * 10_000)
    hi = tail // 10_000
    out["g2"] = digits.take(hi)
    out["g3"] = digits.take(tail - hi * 10_000)
    out["exp"] = exps.take(j)
    out["sep"] = np.array([ord(","), ord("\n")], np.uint8)
    slow = np.flatnonzero(~exact)
    if slow.size:
        text = "".join([f"{v:.12e}" for v in values.ravel()[slow].tolist()])
        out.view(np.uint8).reshape(-1, 19)[slow, :18] = (
            np.frombuffer(text.encode(), np.uint8).reshape(-1, 18)
        )
    return out


def _decades(T: int) -> list:
    """(first t, ASCII digits of each t) of each decade of t = 1..T: 1-9, 10-99, ..."""
    decades = []
    for w in range(1, len(str(T)) + 1):
        t = np.arange(10 ** (w - 1), min(10 ** w, T + 1))
        digits = t[:, None] // 10 ** np.arange(w - 1, -1, -1) % 10 + 48
        decades.append((t[0], digits.astype(np.uint8)))
    return decades


def _raw_blocks(results):
    """The rows "t,seed,agent,inst_regret,cum_regret" of each (seed, agent) block,
    one block at a time, so that memory stays flat in the seed count: one byte
    array, or the block's rows one by one as bytes.

    A block whose values are all in the fixed-width class (+0.0 or [1e-99, 1e99),
    which holds every real run's) is built as one byte array: its fields by
    `_fixed_fields`, exact in array operations but for the values near a
    rounding tie, and its rows a decade of t at a time, every row of a decade
    having the same width. Any other block, one with a negative value, -0.0, a
    subnormal, inf, nan or a value of 1e99 or more, is formatted row by row with
    an f-string.
    """
    T = None
    for r in results:
        if r.T != T:
            T, decades = r.T, _decades(r.T)
        cum = r.cum_regret()
        for i in range(r.n_agents):
            values = np.stack([r.inst_regret[i], cum[i]], axis=-1)
            fixed = ((values >= _FIXED_LO) & (values < _FIXED_HI)) | (values.view(np.int64) == 0)
            if not fixed.all():
                rows = zip(range(1, T + 1), values[:, 0].tolist(), values[:, 1].tolist())
                yield from (f"{t},{r.seed},{i},{x:.12e},{c:.12e}\n".encode()
                            for t, x, c in rows)
                continue
            tails = _fixed_fields(values).view(np.uint8)  # (T, 38)
            mid = np.frombuffer(f",{r.seed},{i},".encode(), np.uint8)
            block = np.empty(sum(d.shape[0] * (d.shape[1] + len(mid) + 38) for _, d in decades),
                             np.uint8)
            at = 0
            for first, digits in decades:
                n, w = digits.shape
                rows = block[at:at + n * (w + len(mid) + 38)].reshape(n, -1)
                rows[:, :w] = digits
                rows[:, w:w + len(mid)] = mid
                rows[:, w + len(mid):] = tails[first - 1:first - 1 + n]
                at += rows.size
            yield block


def emit_csv(obj, path) -> None:
    """Aggregate -> t,mean,ci_low,ci_high; raw results -> t,seed,agent,inst_regret,cum_regret."""
    if isinstance(obj, Aggregate):
        columns = (obj.mean_curve.tolist(), obj.ci95_low.tolist(), obj.ci95_high.tolist())
        rows = [f"{t},{a:.12e},{lo:.12e},{hi:.12e}\n"
                for t, (a, lo, hi) in enumerate(zip(*columns), 1)]
        _write_csv(path, "t,mean,ci_low,ci_high", map(str.encode, rows))
    else:
        _write_csv(path, "t,seed,agent,inst_regret,cum_regret", _raw_blocks(obj))
