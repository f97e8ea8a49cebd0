"""Digest of the raw CSV of every config of `run_digest.py`'s matrix, to tell
whether a change of the CSV writer changes any byte.

    PYTHONPATH=src python tools/csv_digest.py

Prints one line per config, "<config> <sha256>", the hash taken over the bytes
`subgoss run --raw-out` writes for its three seeds (`harness.emit_csv` of the
run's results), then a line "total <sha256>" over all of them. Run it on two
trees and `diff` the outputs. The 160 configs cover the four shapes and
policies, both explore-budget modes and fixed and resampled action sets, so
their blocks hold zeros, repeated values and values that are all distinct.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

from run_digest import configs, label

from subgoss import harness


def main() -> None:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.csv"
        for config in configs():
            harness.emit_csv(harness.run(config), path)
            line = f"{label(config)} {hashlib.sha256(path.read_bytes()).hexdigest()}"
            total.update(line.encode())
            print(line)
    print(f"total {total.hexdigest()}")


if __name__ == "__main__":
    main()
