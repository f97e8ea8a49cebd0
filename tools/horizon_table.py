"""The criterion-6 comparison, single-agent subgoss against oful, at longer horizons.

    PYTHONPATH=src python tools/horizon_table.py

Runs the criterion-6 fixture config (the Fig-1 shape d=24, m=2, K=12, fixed
action sets, master seed 6, 30 seeds) for `subgoss_single` and `oful` at
T = 2*10^4, 10^5 and 4*10^5, and prints one line per policy and horizon: the
mean final per-agent regret over the seeds with its normal-approximation 95%
interval (as `harness.aggregate` gives it), the share of the regret charged to
explore plays (read from each result's `explored`, pooled over the seeds; 0
for oful, which never explores) and the seconds the leg took. The seeds run in
batches of `BATCH` seeds (`harness._run_batch`, the batch step of
`harness.run`), which bounds the memory of the 4*10^5 legs. The 4*10^5 oful
leg takes most of the run time.
"""

from __future__ import annotations

import math
import time

import numpy as np

from subgoss import harness

FIXTURE = dict(d=24, m=2, K=12, N=1, master_seed=6, n_seeds=30)
POLICIES = ("subgoss_single", "oful")
HORIZONS = (20_000, 100_000, 400_000)
BATCH = 10


def leg(policy: str, T: int) -> str:
    config = harness.RunConfig(**FIXTURE, T=T, policy=policy)
    started = time.perf_counter()
    finals, explore_regret, total_regret = [], 0.0, 0.0
    for lo in range(0, config.n_seeds, BATCH):
        seeds = list(range(lo, min(lo + BATCH, config.n_seeds)))
        for result in harness._run_batch(config, seeds):
            finals.append(result.cum_regret()[:, -1].mean())
            explore_regret += math.fsum(result.inst_regret[result.explored])
            total_regret += math.fsum(result.inst_regret.ravel())
    finals = np.array(finals)
    mean = finals.mean()
    half = 1.96 * finals.std(ddof=1) / math.sqrt(len(finals))
    share = explore_regret / total_regret
    seconds = time.perf_counter() - started
    return (f"{policy:<15} T={T:<7d} regret {mean:8.0f} [{mean - half:.0f}, {mean + half:.0f}]"
            f"  explore share {share:5.1%}  {seconds:6.1f} s")


def main() -> None:
    for T in HORIZONS:
        for policy in POLICIES:
            print(leg(policy, T), flush=True)


if __name__ == "__main__":
    main()
