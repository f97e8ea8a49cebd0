"""Digest of every run of the Fig-1 matrix at the paper's horizon, to tell whether
a change of the engine changes any long run.

    PYTHONPATH=src python tools/fig1_digest.py

Prints one line per run, "<config> seed=<s> <sha256>", the hash taken over
every `RunResult` field as in `run_digest.py`, then a line "total <sha256>"
over all of them. Run it on two trees and `diff` the outputs.

The matrix is the Fig-1 config (d=24, m=2, K=12, b=2, lambda=1, fixed action
sets) at T = 2*10^4, for multi N=4, multi N=2, single, genie, genie with its
coverage check and oful, with 30 seeds under master seeds 1 and 6: 360 runs.
At this horizon the kept score terms of a fixed set have gone through 2*10^4
rank-1 updates, so a rounding change that `run_digest.py`'s T = 600 misses
shows here. It takes about 15 to 18 s on a shared 2-core host (one process).
"""

from __future__ import annotations

import hashlib

from run_digest import digest

from subgoss import harness

SHAPE = dict(d=24, m=2, K=12, b=2.0, lam=1.0, s_bound=1.0)
# (label, policy, N, track_coverage)
POLICY_RUNS = (
    ("multi4", "subgoss_multi", 4, False),
    ("multi2", "subgoss_multi", 2, False),
    ("single", "subgoss_single", 1, False),
    ("genie", "genie", 1, False),
    ("genie-coverage", "genie", 1, True),
    ("oful", "oful", 1, False),
)
MASTER_SEEDS = (1, 6)
T = 20_000
N_SEEDS = 30


def main() -> None:
    total = hashlib.sha256()
    for master_seed in MASTER_SEEDS:
        for label, policy, N, coverage in POLICY_RUNS:
            config = harness.RunConfig(
                **SHAPE, T=T, N=N, policy=policy, track_coverage=coverage,
                n_seeds=N_SEEDS, master_seed=master_seed,
            )
            for result in harness.run(config):
                line = f"{label},master_seed={master_seed} seed={result.seed} {digest(result)}"
                total.update(line.encode())
                print(line)
    print(f"total {total.hexdigest()}")


if __name__ == "__main__":
    main()
