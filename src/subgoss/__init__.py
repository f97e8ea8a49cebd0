"""Phased subspace-bandit agents collaborating over a gossip network.

Deterministic, seed-reproducible simulation of multi-agent stochastic linear
bandits whose unknown parameter lies in one of K known low-dimensional
subspaces, plus single-agent / full-dimensional / known-subspace baselines and
closed-form bound evaluators.
"""

from .environment import (
    ProblemInstance,
    SubspaceCollection,
    compute_gap,
    generate_instance,
)
from .harness import Aggregate, RunConfig, aggregate, emit_csv, load_config, run
from .linalg import Basis, random_orthonormal_basis
from .network import GossipMatrix, complete_graph, estimate_spread_moment, simulate_rumor_spread
from .policies import (
    PolicyParams,
    RunResult,
    run_genie,
    run_oful_baseline,
    run_single_agent_subgoss,
    run_subgoss_multi,
)

__version__ = "0.1.0"

__all__ = [
    "Aggregate",
    "Basis",
    "GossipMatrix",
    "PolicyParams",
    "ProblemInstance",
    "RunConfig",
    "RunResult",
    "SubspaceCollection",
    "aggregate",
    "complete_graph",
    "compute_gap",
    "emit_csv",
    "estimate_spread_moment",
    "generate_instance",
    "load_config",
    "random_orthonormal_basis",
    "run",
    "run_genie",
    "run_oful_baseline",
    "run_single_agent_subgoss",
    "run_subgoss_multi",
    "simulate_rumor_spread",
    "__version__",
]
