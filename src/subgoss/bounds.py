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
        if self.T < 1 or self.b <= 1 or self.lam < 1:
            raise InvalidConfigError("need T >= 1, b > 1, lambda >= 1")
        if not 0 < self.delta < 1:
            raise InvalidConfigError("delta must lie in (0, 1)")
        if self.Delta <= 0:
            raise InvalidConfigError("gap must be positive")


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
    if not 0 < delta < 1:
        raise InvalidConfigError("delta must lie in (0, 1)")
    if n < 0 or lam <= 0 or m < 1:
        raise InvalidConfigError("need n >= 0, lambda > 0, m >= 1")
    return S * math.sqrt(lam) + math.sqrt(
        2.0 * math.log(1.0 / delta) + m * math.log1p(n / (lam * m))
    )


def g_of_b(b: float) -> float:
    return 1.0 / (b - 1.0) + 1.0 / math.log(b)


def h_of_bt(b: float, T: int) -> float:
    return b * (1.0 + (T - 1) * (b - 1.0))


def tau0(b: float, m: int, K: int, N: int) -> int:
    """Smallest phase index from which the phase always outlasts its theoretical explore budget.

    Scans the condition ceil(b**(j-1)) >= 8m(K/N+2)*ceil(b**((j-1)/2)) up to the
    analytic tail b**((j-1)/2) >= 16m(K/N+2), beyond which it provably holds.
    """
    if b <= 1 or m < 1 or K < 1 or N < 1:
        raise InvalidConfigError("need b > 1 and positive m, K, N")
    c = 8.0 * m * (K / N + 2.0)
    # tail certificate: b**((j-1)/2) >= 2c makes the inequality hold for all larger j
    j_tail = int(math.ceil(2.0 * math.log(2.0 * c) / math.log(b) + 1.0)) + 1

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
    h = h_of_bt(b, inputs.T)
    per = inputs.K / inputs.N + 2.0
    explore = 16.0 * m * S * per * (
        math.log(h) / math.log(b) + (math.sqrt(h) - 1.0) / (math.sqrt(b) - 1.0)
    )
    return BoundBreakdown(proj, comm, explore)


def single_agent_bound(inputs: BoundInputs) -> BoundBreakdown:
    """No-communication variant: search constant scales with K instead of K/N."""
    b, m, K, S = inputs.b, inputs.m, inputs.K, inputs.S
    proj = projected_linucb_bound(inputs.T, m, inputs.lam, inputs.delta, S) + 2.0 * S
    search = 2.0 * S * g_of_b(b) * (
        math.ceil(b * (16.0 * m * K) ** 2)
        + (8.0 * b**2 / math.log(b)) * (m**2 / inputs.Delta**2)
    )
    h = h_of_bt(b, inputs.T)
    explore = 16.0 * m * K * S * (
        math.log(h) / math.log(b) + (math.sqrt(h) - 1.0) / (math.sqrt(b) - 1.0)
    )
    return BoundBreakdown(proj, search, explore)


def lemma2_tail_count(eps: float, m: int, n: int) -> float:
    """Explore-estimator deviation tail 2m exp(-eps^2 n / (2 m^2)) at n explore samples."""
    if eps <= 0:
        raise InvalidConfigError("eps must be positive")
    return 2.0 * m * math.exp(-eps * eps * n / (2.0 * m * m))


def lemma2_tail_phase(eps: float, m: int, b: float, j: int) -> float:
    """Phase-indexed form 2m exp(-(4 eps^2 / m) b**((j-1)/2))."""
    if eps <= 0:
        raise InvalidConfigError("eps must be positive")
    return 2.0 * m * math.exp(-(4.0 * eps * eps / m) * b ** ((j - 1) / 2.0))


def lemma3_tail(Delta: float, m: int, b: float, j: int) -> float:
    """Wrong-subspace probability tail 4m exp(-(Delta^2 / m) b**((j-1)/2))."""
    if Delta <= 0:
        raise InvalidConfigError("Delta must be positive")
    return 4.0 * m * math.exp(-(Delta * Delta / m) * b ** ((j - 1) / 2.0))


def collaboration_ratio(
    T: int,
    d: int,
    m: int,
    b: float,
    lam: float,
    delta: float,
    Delta: float,
    alpha: float,
):
    """Single-agent to multi-agent bound ratio in the K = N = d/m regime.

    alpha parameterizes the complete-graph spread-moment constant, which the
    analysis leaves uninstantiated.
    """
    proj = projected_linucb_bound(T, m, lam, delta, 1.0) + 2.0
    g = g_of_b(b)
    h = h_of_bt(b, T)
    tail = math.log(h) / math.log(b) + (math.sqrt(h) - 1.0) / (math.sqrt(b) - 1.0)
    r_single = proj + 2.0 * g * (
        math.ceil(b * (16.0 * d) ** 2) + (8.0 * b**2 / math.log(b)) * (m**2 / Delta**2)
    ) + 16.0 * d * tail
    r_multi = proj + 2.0 * g * (
        math.ceil(b**2 * (48.0 * m) ** 4)
        + (48.0 * b**3 / math.log(b)) * (m**3 * d / Delta**6)
        + alpha * d / m
    ) + 48.0 * m * tail
    return r_single, r_multi, r_single / r_multi
