"""Command-line front end.

Subcommands:
  run       config file -> aggregate (and optionally raw) regret CSVs
  bounds    config file -> closed-form bound curve CSV
  spread    rumor-spread statistics for a gossip graph
  validate  config sanity + gossip irreducibility check

Exit codes: 0 success, 2 configuration error (a config too large to allocate
included), 1 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import bounds as bounds_mod
from . import network
from .errors import InvalidConfigError, InvalidDimensionError, SubgossError
from .harness import (
    _write_csv,
    aggregate,
    build_gossip,
    config_from_dict,
    emit_csv,
    instance_gap,
    load_config,
    run,
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="subgoss",
        description="Phased subspace-bandit simulations over gossip networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a config over many seeds")
    run_p.add_argument("--config", required=True, help="JSON config file")
    run_p.add_argument("--out", required=True, help="aggregate CSV output path")
    run_p.add_argument("--raw-out", help="optional per-play raw CSV output path")
    run_p.add_argument("--policy", help="override: policy name")
    run_p.add_argument("--T", type=int, help="override: horizon")
    run_p.add_argument("--n-seeds", type=int, help="override: number of seeds")
    run_p.add_argument("--seed", type=int, help="override: master seed")

    bounds_p = sub.add_parser("bounds", help="emit closed-form bound curves")
    bounds_p.add_argument("--config", required=True)
    bounds_p.add_argument("--out", required=True)
    bounds_p.add_argument("--gap", type=float,
                          help="subspace gap; default: gap of the seed-0 instance")
    bounds_p.add_argument("--spread-moment", type=float, default=1.0,
                          help="E[b^(2 tau_spr)] plug-in for the communication term")
    bounds_p.add_argument("--single-agent", action="store_true",
                          help="evaluate the no-communication bound instead")
    bounds_p.add_argument("--seed", type=int, help="override: master seed")

    spread_p = sub.add_parser("spread", help="rumor-spread statistics")
    spread_p.add_argument("--n-agents", type=int, help="complete graph on N agents")
    spread_p.add_argument("--gossip", help="JSON gossip matrix file")
    spread_p.add_argument("--b", type=float, default=2.0)
    spread_p.add_argument("--trials", type=int, default=2000)
    spread_p.add_argument("--seed", type=int, default=0)

    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("--config", required=True)
    return parser


def _apply_overrides(config, args):
    updates = {}
    if getattr(args, "policy", None) is not None:
        updates["policy"] = args.policy
    if getattr(args, "T", None) is not None:
        updates["T"] = args.T
    if getattr(args, "n_seeds", None) is not None:
        updates["n_seeds"] = args.n_seeds
    if getattr(args, "seed", None) is not None:
        updates["master_seed"] = args.seed
    if not updates:
        return config
    return config_from_dict({**dataclasses.asdict(config), **updates})


def _cmd_run(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    results = run(config)
    if len(results) >= 2:
        emit_csv(aggregate(results), args.out)
    else:
        emit_csv(results, args.out)
    if args.raw_out:
        emit_csv(results, args.raw_out)
    print(f"wrote {args.out} ({config.policy}, {config.n_seeds} seeds, T={config.T})")
    return 0


def _cmd_bounds(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    gap = args.gap if args.gap is not None else instance_gap(config)
    delta = config.policy_params().delta_value()
    try:
        tau = bounds_mod.tau0(config.b, config.m, config.K, config.N)
        inputs = bounds_mod.BoundInputs(
            T=config.T, d=config.d, m=config.m, K=config.K, N=max(config.N, 1),
            b=config.b, lam=config.lam, delta=delta, S=config.s_bound,
            Delta=gap, spread_moment=args.spread_moment,
        )
        curve = bounds_mod.bound_curve(inputs, None if args.single_agent else tau)
    except (OverflowError, ZeroDivisionError) as exc:
        raise InvalidConfigError(f"bound leaves the float range: {exc}") from exc
    rows = []
    for t, (proj, comm, explore) in enumerate(curve, 1):
        total = proj + comm + explore
        # a product past the float range gives inf without raising, and a term
        # that is inf or nan makes the total so
        if not math.isfinite(total):
            terms = (proj, comm, explore, total)
            raise InvalidConfigError(f"bound leaves the float range at t={t}: {terms}")
        rows.append(f"{t},{proj:.12e},{comm:.12e},{explore:.12e},{total:.12e}\n")
    # every row is computed before the file is opened, so a bad input leaves no file
    _write_csv(args.out, "t,projected_linucb,communication,exploration,total",
               map(str.encode, rows))
    print(f"wrote {args.out} (gap={gap:.6g}, tau0={tau})")
    return 0


def _cmd_spread(args) -> int:
    if (args.n_agents is None) == (args.gossip is None):
        raise InvalidConfigError("give exactly one of --n-agents or --gossip")
    if args.seed < 0:
        raise InvalidConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.n_agents is not None:
        g = network.complete_graph(args.n_agents)
    else:
        g = network.load_gossip(args.gossip)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    est = network.estimate_spread_moment(g, args.b, args.trials, rng)
    taus = est.taus
    print(f"agents: {g.n_agents}")
    print(f"trials: {est.trials}")
    print(f"mean_tau: {taus.mean():.6g}")
    print(f"max_tau: {int(taus.max())}")
    print(f"spread_moment_b{args.b:g}: {est.mean:.6g} +- {est.stderr:.3g}")
    return 0


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    build_gossip(config)
    print("config ok")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "bounds": _cmd_bounds,
    "spread": _cmd_spread,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (InvalidConfigError, InvalidDimensionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a config whose arrays cannot be allocated, by T, d or the action count
        print(f"config error: the run does not fit in memory: {exc or 'MemoryError'}",
              file=sys.stderr)
        return 2
    except (SubgossError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
