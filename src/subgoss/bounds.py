"""Closed-form bound evaluators used as reference curves and test oracles.

All logarithms are natural unless the name says otherwise. Every function is
pure; identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidConfigError, InvariantViolationError


@dataclass(frozen=True)
class BoundInputs:
    T: int
    d: int
    m: int
    K: int
    N: int
    b: float
    lam: float
    delta: float
    S: float
    Delta: float
    spread_moment: float = 1.0

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not (self.T >= 1 and self.b > 1 and self.lam >= 1):
            raise InvalidConfigError("need T >= 1, b > 1, lambda >= 1")
        if not 0 < self.delta < 1:
            raise InvalidConfigError("delta must lie in (0, 1)")
        if not 0 < self.Delta < math.inf:
            raise InvalidConfigError(f"gap must be positive and finite, got {self.Delta}")
        if not 1 <= self.spread_moment < math.inf:
            raise InvalidConfigError(
                f"spread moment E[b^(2 tau)] must be finite and >= 1, got {self.spread_moment}"
            )


@dataclass(frozen=True)
class BoundBreakdown:
    projected_linucb: float
    communication: float
    exploration: float

    @property
    def total(self) -> float:
        return self.projected_linucb + self.communication + self.exploration


def beta(delta: float, m: int, lam: float, n: int, S: float = 1.0) -> float:
    """Confidence-ellipsoid radius S*sqrt(lambda) + sqrt(2 log(1/delta) + m log(1 + n/(lambda m)))."""
    radius = beta_of_count(delta, m, lam, S)
    if n < 0:
        raise InvalidConfigError("need n >= 0, lambda > 0, m >= 1")
    return radius(n)


def beta_constants(delta: float, m: int, lam: float, S: float = 1.0):
    """The inputs checked, the constants (offset, log_term, scale) of
    beta(n) = offset + sqrt(log_term + m log1p(n / scale))."""
    if not 0 < delta < 1:
        raise InvalidConfigError("delta must lie in (0, 1)")
    if lam <= 0 or m < 1:
        raise InvalidConfigError("need n >= 0, lambda > 0, m >= 1")
    return S * math.sqrt(lam), 2.0 * math.log(1.0 / delta), lam * m


def beta_of_count(delta: float, m: int, lam: float, S: float = 1.0):
    """`beta` as a function of the play count n >= 0 alone, the other inputs checked
    once."""
    offset, log_term, scale = beta_constants(delta, m, lam, S)
    return lambda n: offset + math.sqrt(log_term + m * math.log1p(n / scale))


def g_of_b(b: float) -> float:
    return 1.0 / (b - 1.0) + 1.0 / math.log(b)


def h_of_bt(b: float, T: int) -> float:
    return b * (1.0 + (T - 1) * (b - 1.0))


def _explore_tail(b: float, T: int) -> float:
    """Phase-count factor log h / log b + (sqrt h - 1) / (sqrt b - 1) of the exploration terms."""
    h = h_of_bt(b, T)
    return math.log(h) / math.log(b) + (math.sqrt(h) - 1.0) / (math.sqrt(b) - 1.0)


# most phase indices tau0 scans: the scan takes about 2 log 2 / log(b) steps, so b
# near 1 would make it run for minutes
TAU0_MAX_SCAN = 10**6


def tau0(b: float, m: int, K: int, N: int) -> int:
    """Smallest phase index from which the phase always outlasts its theoretical explore budget.

    Scans the condition ceil(b**(j-1)) >= 8m(K/N+2)*ceil(b**((j-1)/2)) down
    from the analytic tail b**((j-1)/2) >= 16m(K/N+2), beyond which it provably
    holds, and raises InvalidConfigError if the scan would pass TAU0_MAX_SCAN
    indices.
    """
    if b <= 1 or m < 1 or K < 1 or N < 1:
        raise InvalidConfigError("need b > 1 and positive m, K, N")
    c = 8.0 * m * (K / N + 2.0)
    # tail certificate: b**((j-1)/2) >= 2c makes the inequality hold for all larger j
    j_tail = int(math.ceil(2.0 * math.log(2.0 * c) / math.log(b) + 1.0)) + 1
    # the scan stops near the crossing b**((j-1)/2) = c, about 2 log 2 / log b
    # indices below j_tail
    if j_tail - (2.0 * math.log(c) / math.log(b) + 1.0) > TAU0_MAX_SCAN:
        raise InvalidConfigError(
            f"b={b!r} is too close to 1: the tau0 scan would pass {TAU0_MAX_SCAN} phase indices"
        )

    def holds(j: int) -> bool:
        return math.ceil(b ** (j - 1)) >= c * math.ceil(b ** ((j - 1) / 2.0))

    result = j_tail
    for j in range(j_tail, 0, -1):
        if holds(j):
            result = j
        else:
            break
    # integer granularity can land one phase above the analytic bound at large b
    bound = 2.0 * math.log(16.0 * m * (K / N + 2.0)) / math.log(b) + 1.0
    if result > bound + 1.0 + 1e-9:
        raise InvariantViolationError(
            f"tau0 scan gave {result}, above the analytic bound {bound:.6g} + 1"
        )
    return result


def projected_linucb_bound(T: int, m: int, lam: float, delta: float, S: float = 1.0) -> float:
    """High-probability regret bound sqrt(8 m T beta_T^2 log(1 + T/(m lambda)))."""
    if T < 1:
        raise InvalidConfigError("need T >= 1")
    bT = beta(delta, m, lam, T - 1, S)
    return math.sqrt(8.0 * m * T * bT * bT * math.log1p(T / (m * lam)))


def theorem1_bound(inputs: BoundInputs, tau0_value: int) -> BoundBreakdown:
    """Multi-agent per-agent expected regret bound, split into its three named terms."""
    b, m, S = inputs.b, inputs.m, inputs.S
    proj = projected_linucb_bound(inputs.T, m, inputs.lam, inputs.delta, S) + 2.0 * S
    comm = 2.0 * S * g_of_b(b) * (
        math.ceil(b ** (2 * tau0_value))
        + (48.0 * b**3 / math.log(b)) * (m**4 * inputs.N / inputs.Delta**6)
        + b * inputs.spread_moment
    )
    per = inputs.K / inputs.N + 2.0
    explore = 16.0 * m * S * per * _explore_tail(b, inputs.T)
    return BoundBreakdown(proj, comm, explore)


def single_agent_bound(inputs: BoundInputs) -> BoundBreakdown:
    """No-communication variant: search constant scales with K instead of K/N."""
    b, m, K, S = inputs.b, inputs.m, inputs.K, inputs.S
    proj = projected_linucb_bound(inputs.T, m, inputs.lam, inputs.delta, S) + 2.0 * S
    search = 2.0 * S * g_of_b(b) * (
        math.ceil(b * (16.0 * m * K) ** 2)
        + (8.0 * b**2 / math.log(b)) * (m**2 / inputs.Delta**2)
    )
    explore = 16.0 * m * K * S * _explore_tail(b, inputs.T)
    return BoundBreakdown(proj, search, explore)


def lemma2_tail_count(eps: float, m: int, n: int) -> float:
    """Explore-estimator deviation tail 2m exp(-eps^2 n / (2 m^2)) at n explore samples."""
    if eps <= 0:
        raise InvalidConfigError("eps must be positive")
    return 2.0 * m * math.exp(-eps * eps * n / (2.0 * m * m))


def lemma3_tail(Delta: float, m: int, b: float, j: int) -> float:
    """Wrong-subspace probability tail 4m exp(-(Delta^2 / m) b**((j-1)/2))."""
    if Delta <= 0:
        raise InvalidConfigError("Delta must be positive")
    return 4.0 * m * math.exp(-(Delta * Delta / m) * b ** ((j - 1) / 2.0))

