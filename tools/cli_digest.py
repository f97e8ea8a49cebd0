"""Digest of `subgoss spread` and `subgoss bounds` over a fixed matrix, to tell
whether a change of the network or bound layers changes any byte.

    PYTHONPATH=src python tools/cli_digest.py

Prints one line per command, "<arguments> <sha256>", the hash taken over the
exit code and stdout and, for `bounds`, the bytes of the CSV it writes, then a
line "total <sha256>" over all of them. Run it on two trees and `diff` the
outputs.

`spread` runs on complete graphs of N = 2, 3, 4, 8 and 16 agents and on two
random gossip matrices (N = 3 and 8), at seeds 0, 1, 5 and 2718 and b = 1.3, 2
and 3. `bounds` runs four config shapes at b = 1.3, 2 and 3, T = 2000, each
with the theorem-1 bound and `--single-agent`, with the seed-0 gap and with
`--gap 0.3 --spread-moment 300`, and one T = 2x10^4 curve per shape.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np

from subgoss import cli

SPREAD_AGENTS = (2, 3, 4, 8, 16)
SEEDS = (0, 1, 5, 2718)
BS = (1.3, 2.0, 3.0)
SHAPES = (
    dict(d=6, m=1, K=4, N=2),
    dict(d=8, m=2, K=4, N=1),
    dict(d=12, m=3, K=4, N=4),
    dict(d=24, m=2, K=12, N=4),  # Fig-1
)


def _run(argv, out, tmp: Path) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    # `bounds` names its output file, which lies in a fresh temporary directory
    text = stdout.getvalue().replace(f"{tmp}/", "")
    h = hashlib.sha256(f"{code}\n{text}".encode())
    if out is not None and out.exists():
        h.update(out.read_bytes())
        out.unlink()
    return h.hexdigest()


def _gossip_files(tmp: Path):
    # random row-stochastic matrices with zero diagonals, fixed by their seed
    for n in (3, 8):
        probs = np.random.default_rng(n).random((n, n))
        np.fill_diagonal(probs, 0.0)
        path = tmp / f"gossip{n}.json"
        path.write_text(json.dumps((probs / probs.sum(axis=1, keepdims=True)).tolist()))
        yield path


def commands(tmp: Path):
    graphs = [["--n-agents", str(n)] for n in SPREAD_AGENTS]
    graphs += [["--gossip", str(path)] for path in _gossip_files(tmp)]
    for graph, seed, b in itertools.product(graphs, SEEDS, BS):
        yield ["spread", *graph, "--seed", str(seed), "--b", str(b)], None
    out = tmp / "bounds.csv"
    for i, shape in enumerate(SHAPES):
        for b, T in [(b, 2000) for b in BS] + [(2.0, 20_000)]:
            config = tmp / f"config{i}-{b}-{T}.json"
            policy = "subgoss_multi" if shape["N"] > 1 else "subgoss_single"
            config.write_text(json.dumps(
                dict(shape, b=b, T=T, policy=policy, n_seeds=2, master_seed=3)
            ))
            for single, flags in itertools.product(
                ([], ["--single-agent"]), ([], ["--gap", "0.3", "--spread-moment", "300"])
            ):
                yield ["bounds", "--config", str(config), "--out", str(out), *single,
                       *flags], out


def main() -> None:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for argv, out in commands(tmp):
            label = " ".join(a.replace(f"{tmp}/", "") for a in argv)
            line = f"{label} {_run(argv, out, tmp)}"
            total.update(line.encode())
            print(line)
    print(f"total {total.hexdigest()}")


if __name__ == "__main__":
    main()
