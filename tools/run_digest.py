"""Digest of every run of a fixed config matrix, to tell whether a change of the
engine changes any run.

    PYTHONPATH=src python tools/run_digest.py

Prints one line per run, "<config> seed=<s> <sha256>", the hash taken over
every `RunResult` field, then a line "total <sha256>" over all of them. Run it
on two trees and `diff` the outputs: equal lines are bit-identical runs, and
the differing lines count the runs a change moved.

The matrix crosses four shapes (m = 1, 2, 3 and the Fig-1 shape), the four
policies, both explore-budget modes, fixed and resampled action sets and two
action counts (the default 5d random rows and a single one), with 3 seeds each
at T = 600, and genie both with its coverage check on and off: 480 runs. The
coverage check makes genie score from scratch, so the two genie rows cover
both of its scoring paths. The matrix is fixed, so that two digests always
compare the same runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools

import numpy as np

from subgoss import harness
from subgoss.harness import POLICIES
from subgoss.policies import RunResult

SHAPES = (
    dict(d=6, m=1, K=4, N=2),
    dict(d=8, m=2, K=4, N=2),
    dict(d=12, m=3, K=4, N=2),
    dict(d=24, m=2, K=12, N=4),  # Fig-1
)
# (policy, track_coverage)
POLICY_RUNS = tuple((p, False) for p in POLICIES) + (("genie", True),)
T = 600
N_SEEDS = 3


def configs():
    for shape, (policy, coverage), mode, resample, extra in itertools.product(
        SHAPES, POLICY_RUNS, ("experimental", "theoretical"), (False, True), (None, 1)
    ):
        yield harness.RunConfig(
            **dict(shape, N=shape["N"] if policy == "subgoss_multi" else 1),
            T=T, policy=policy, explore_budget_mode=mode, resample_actions_per_step=resample,
            n_extra_actions=extra, track_coverage=coverage, n_seeds=N_SEEDS,
            master_seed=11,
        )


def digest(result: RunResult) -> str:
    h = hashlib.sha256()
    for field in dataclasses.fields(RunResult):
        value = getattr(result, field.name)
        h.update(field.name.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def label(config) -> str:
    return (f"d={config.d},m={config.m},K={config.K},N={config.N},{config.policy},"
            f"{config.explore_budget_mode},resample={config.resample_actions_per_step},"
            f"extra={config.n_extra_actions},coverage={config.track_coverage}")


def main() -> None:
    total = hashlib.sha256()
    for config in configs():
        for result in harness.run(config):
            line = f"{label(config)} seed={result.seed} {digest(result)}"
            total.update(line.encode())
            print(line)
    print(f"total {total.hexdigest()}")


if __name__ == "__main__":
    main()
