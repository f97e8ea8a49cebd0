"""Per-policy `harness.run` seconds of two source trees on the Fig-1 configs.

    python tools/policy_timings.py PARENT_TREE CHANGE_TREE --master-seed 6 --seeds 2
    python tools/policy_timings.py PARENT_TREE CHANGE_TREE --seeds 30 --resample 4000

Each tree is the root of a checkout, imported from its own `src/`. The script
runs `rounds` rounds; in each, one subprocess per tree (the trees in turn, the
first tree first in odd rounds) times `harness.run` of every Fig-1 config
(d=24, m=2, K=12, T=2*10^4, fixed action set) `repeats` times and keeps the
best. With `--resample T` the configs draw a fresh action set every step and
run to horizon T instead. It then prints, per policy, the best seconds over
all rounds of each tree, their ratio first/second, the number of rounds in
which the second tree was faster, and whether the two trees' results are the
same: a sha256 over the bytes of every seed's `played` and `inst_regret`; and
the largest peak RSS of each tree's processes. One BLAS thread per process.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# (label, policy, N), as the benchmark's fig1 workload runs them
POLICIES = (
    ("multi4", "subgoss_multi", 4),
    ("multi2", "subgoss_multi", 2),
    ("single", "subgoss_single", 1),
    ("oful", "oful", 1),
    ("genie", "genie", 1),
)
SHAPE = dict(d=24, m=2, K=12, b=2.0, lam=1.0, s_bound=1.0, T=20_000)
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child(master_seed: int, n_seeds: int, repeats: int, labels, resample: int) -> None:
    """Time the configs of `labels` in this process, resampled at horizon `resample`
    unless it is 0; print {label: [s, digest], "rss_mb": peak RSS}."""
    import hashlib
    import resource
    from time import perf_counter

    from subgoss import harness

    out = {}
    for label, policy, N in POLICIES:
        if label not in labels:
            continue
        shape = dict(SHAPE, T=resample, resample_actions_per_step=True) if resample else SHAPE
        config = harness.RunConfig(**shape, N=N, policy=policy, n_seeds=n_seeds,
                                   master_seed=master_seed)
        best = float("inf")
        for _ in range(repeats):
            start = perf_counter()
            results = harness.run(config)
            best = min(best, perf_counter() - start)
        digest = hashlib.sha256()
        for result in results:
            digest.update(result.played.tobytes())
            digest.update(result.inst_regret.tobytes())
        out[label] = [best, digest.hexdigest()]
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


def run_tree(tree: Path, args) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    env.update({name: "1" for name in THREADS})
    command = [sys.executable, __file__, "--child", str(args.master_seed), str(args.seeds),
               str(args.repeats), ",".join(args.policies), str(args.resample or 0)]
    done = subprocess.run(command, env=env, cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def main() -> None:
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        master_seed, n_seeds, repeats, labels, resample = sys.argv[2:7]
        child(int(master_seed), int(n_seeds), int(repeats), labels.split(","), int(resample))
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs=2, type=Path, help="the two source trees")
    parser.add_argument("--master-seed", type=int, default=6)
    parser.add_argument("--seeds", type=int, default=2, help="seeds per config")
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3, help="runs per config and round")
    parser.add_argument("--policies", type=lambda s: s.split(","),
                        default=[label for label, _, _ in POLICIES],
                        help="comma-separated labels, of " + ", ".join(p[0] for p in POLICIES))
    parser.add_argument("--resample", type=int, metavar="T",
                        help="resampled action sets at horizon T (default: the fixed set)")
    args = parser.parse_args()
    if args.resample is not None and args.resample < 1:
        parser.error("--resample must be a horizon >= 1")
    trees = [tree.resolve() for tree in args.trees]
    rounds = []
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        got = {i: run_tree(trees[i], args) for i in order}
        rounds.append((got[0], got[1]))
    sets = f"resampled sets, T={args.resample}" if args.resample else "fixed sets"
    print(f"master seed {args.master_seed}, {args.seeds} seeds, {sets}, best of "
          f"{args.rounds} rounds x {args.repeats} runs")
    print(f"{'policy':8} {'first s':>9} {'second s':>9} {'ratio':>6} {'faster':>7}  same")
    for label in args.policies:
        first = min(a[label][0] for a, _ in rounds)
        second = min(b[label][0] for _, b in rounds)
        faster = sum(b[label][0] < a[label][0] for a, b in rounds)
        same = all(a[label][1] == b[label][1] for a, b in rounds)
        print(f"{label:8} {first:9.3f} {second:9.3f} {first / second:6.2f} "
              f"{faster:>3}/{len(rounds):<3}  {'yes' if same else 'NO'}")
    print("peak RSS MB: " + " ".join(
        f"{max(r[i]['rss_mb'] for r in rounds):.1f}" for i in (0, 1)))


if __name__ == "__main__":
    main()
