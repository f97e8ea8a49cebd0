"""Closed forms the benchmark checks the simulator against.

Everything here is written out from the paper's definitions and imports
nothing from `subgoss`, so a fault in the package cannot hide in its own check.
Logarithms are natural.
"""

from __future__ import annotations

import math


def phase_counts(T: int, b: float) -> tuple:
    """(phases started by T, phases complete by T) for phase lengths ceil(b**(j-1)).

    A multi-agent run gossips once per complete phase, so the second number is
    every agent's communication count.
    """
    started = complete = 0
    start, j = 1, 1
    while start <= T:
        end = start + math.ceil(b ** (j - 1)) - 1
        started += 1
        complete += end <= T
        start, j = end + 1, j + 1
    return started, complete


def beta(delta: float, dim: int, lam: float, n: int, S: float = 1.0) -> float:
    """Confidence radius S*sqrt(lam) + sqrt(2 log(1/delta) + dim log(1 + n/(lam dim)))."""
    return S * math.sqrt(lam) + math.sqrt(
        2.0 * math.log(1.0 / delta) + dim * math.log(1.0 + n / (lam * dim))
    )


def linucb_regret_bound(T: int, dim: int, lam: float, delta: float, S: float = 1.0) -> float:
    """sqrt(8 dim T beta_T^2 log(1 + T/(dim lam))): optimistic play in dim dimensions."""
    bT = beta(delta, dim, lam, T, S)
    return math.sqrt(8.0 * dim * T * bT * bT * math.log(1.0 + T / (dim * lam)))


def exploration_term(t: int, m: int, K: int, N: int, b: float, S: float = 1.0) -> float:
    """16 m S (K/N+2) (log h/log b + (sqrt h - 1)/(sqrt b - 1)), h = b(1+(t-1)(b-1))."""
    h = b * (1.0 + (t - 1) * (b - 1.0))
    return 16.0 * m * S * (K / N + 2.0) * (
        math.log(h) / math.log(b) + (math.sqrt(h) - 1.0) / (math.sqrt(b) - 1.0)
    )


def pull_spread_moments(N: int) -> tuple:
    """Exact (mean, variance) of the pull rumor-spread time on the complete graph.

    Dynamic programming over k, the number of informed agents. In a round each
    of the N-k uninformed agents pulls one of its N-1 neighbours uniformly, so
    the number newly informed is Binomial(N-k, k/(N-1)). Hitting-time moments
    are solved backwards from k = N, where the spread is over.
    """
    mean = [0.0] * (N + 1)
    second = [0.0] * (N + 1)
    for k in range(N - 1, 0, -1):
        n, p = N - k, k / (N - 1)
        step = [math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(n + 1)]
        stay = step[0]
        mean[k] = (1.0 + sum(step[i] * mean[k + i] for i in range(1, n + 1))) / (1.0 - stay)
        second[k] = (
            stay * (1.0 + 2.0 * mean[k])
            + sum(step[i] * (1.0 + 2.0 * mean[k + i] + second[k + i]) for i in range(1, n + 1))
        ) / (1.0 - stay)
    return mean[1], second[1] - mean[1] ** 2
