"""Gossip matrix construction/validation and the standalone pull rumor process."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidConfigError, SpreadMomentOverflowError

ROW_TOL = 1e-12


@dataclass(frozen=True)
class GossipMatrix:
    """N x N row-stochastic communication law."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise InvalidConfigError("gossip matrix must be square")
        object.__setattr__(self, "probs", p)

    @property
    def n_agents(self) -> int:
        return self.probs.shape[0]

    @cached_property
    def row_cdf(self) -> np.ndarray:
        """Cumulative sums of every row, the inverse-CDF table of each agent's pull."""
        return np.cumsum(self.probs, axis=1)


def complete_graph(N: int) -> GossipMatrix:
    """Uniform pulls from the N-1 other agents, zero self-mass."""
    if N < 2:
        raise InvalidConfigError("complete graph needs N >= 2")
    probs = np.full((N, N), 1.0 / (N - 1))
    np.fill_diagonal(probs, 0.0)
    return GossipMatrix(probs)


def _strongly_connected_components(adj: np.ndarray) -> list:
    """Components of a boolean adjacency matrix, as sorted lists ordered by first member.

    Warshall's closure of adj | I gives reach[i, j], whether j is reachable from i;
    i and j share a component iff each reaches the other.
    """
    reach = adj | np.eye(adj.shape[0], dtype=bool)
    for k in range(reach.shape[0]):
        reach |= reach[:, k, None] & reach[k]
    mutual = reach & reach.T
    return [list(c) for c in sorted({tuple(np.flatnonzero(row).tolist()) for row in mutual})]


def validate(matrix) -> list:
    """Return a list of human-readable diagnostics; empty means the matrix is valid."""
    p = matrix.probs if isinstance(matrix, GossipMatrix) else np.asarray(matrix, dtype=float)
    issues = []
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        return ["matrix is not square"]
    if np.any(p < 0):
        i, j = np.argwhere(p < 0)[0]
        issues.append(f"negative entry at ({i}, {j})")
    sums = p.sum(axis=1)
    bad = np.nonzero(~(np.abs(sums - 1.0) <= ROW_TOL))[0]  # NaN sums are bad too
    if bad.size:
        issues.append(f"row {bad[0]} sums to {sums[bad[0]]:.6g}, expected 1")
    if not issues:
        comps = _strongly_connected_components(p > 0)
        if len(comps) > 1:
            issues.append(
                "gossip graph is not strongly connected; components: "
                + "; ".join(str(c) for c in comps)
            )
    return issues


def load_gossip(path) -> GossipMatrix:
    """Read a JSON gossip matrix and validate it; any fault is an InvalidConfigError."""
    try:
        with open(path) as fh:
            probs = np.asarray(json.load(fh), dtype=float)
    except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        raise InvalidConfigError(f"cannot read gossip matrix {path}: {exc}") from exc
    g = GossipMatrix(probs)
    issues = validate(g)
    if issues:
        raise InvalidConfigError("invalid gossip matrix: " + "; ".join(issues))
    return g


def _pull(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF pull of each row of cdf on its uniform variate in u.

    Counting the entries <= u is searchsorted(side="right") on a nondecreasing
    row; the clip keeps rounding in the last cumulative sum from pulling past
    the last agent.
    """
    return np.minimum((cdf <= u[:, None]).sum(axis=1), cdf.shape[1] - 1)


def sample_neighbor(G: GossipMatrix, i: int, rng: np.random.Generator) -> int:
    """Inverse-CDF draw from row i on a single uniform variate."""
    return int(_pull(G.row_cdf[i, None], rng.random(1))[0])


def simulate_rumor_spread(
    G: GossipMatrix,
    source: int,
    rng: np.random.Generator,
    max_rounds: int = 10**6,
):
    """Synchronous PULL rumor process.

    Per round every uninformed agent samples one neighbor from its gossip row and
    becomes informed iff that neighbor was informed at the start of the round.
    Returns (rounds until all informed, per-agent first-informed round).
    """
    n = G.n_agents
    informed = np.zeros(n, dtype=bool)
    informed[source] = True
    times = np.full(n, -1, dtype=np.int64)
    times[source] = 0
    rounds = 0
    while not informed.all():
        rounds += 1
        if rounds > max_rounds:
            raise InvalidConfigError(
                f"rumor did not spread within {max_rounds} rounds; is G irreducible?"
            )
        uninformed = np.flatnonzero(~informed)
        partners = _pull(G.row_cdf[uninformed], rng.random(uninformed.size))
        newly = uninformed[informed[partners]]
        informed[newly] = True
        times[newly] = rounds
    return rounds, times


@dataclass(frozen=True)
class SpreadMomentEstimate:
    mean: float
    stderr: float
    trials: int
    taus: np.ndarray = field(repr=False)


def estimate_spread_moment(
    G: GossipMatrix,
    b: float,
    trials: int,
    rng: np.random.Generator,
    source: int = 0,
) -> SpreadMomentEstimate:
    """Monte-Carlo estimate of E[b**(2*tau_spr)] with its standard error, nan for
    one trial of a random spread, which has none."""
    if not 1 < b < math.inf:
        raise InvalidConfigError(f"need 1 < b < inf, got {b}")
    if trials < 1:
        raise InvalidConfigError(f"need trials >= 1, got {trials}")
    if G.n_agents == 1:
        return SpreadMomentEstimate(1.0, 0.0, trials, np.zeros(trials, dtype=np.int64))
    taus = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        taus[t], _ = simulate_rumor_spread(G, source, rng)
    with np.errstate(over="raise"):
        try:
            vals = np.power(float(b), 2.0 * taus)
        except FloatingPointError as exc:
            raise SpreadMomentOverflowError(
                f"b**(2*tau) overflowed for b={b}, max tau={taus.max()}"
            ) from exc
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(trials)) if trials > 1 else math.nan
    return SpreadMomentEstimate(mean, stderr, trials, taus)
