"""Benchmark of the subgoss simulator.

    python3 bench/run.py --workload fig1 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all

Run from the root of a source checkout; the simulator is imported from its
`src/`. Each workload runs in one process, with SUBGOSS_WORKERS unset and BLAS
on one thread. Whole rounds of the workload repeat while another one fits in
`--seconds`, then the outputs are checked. Times are reported at nominal host
speed (see hostspeed.py). With `--trace 0` the last line of standard output is
a JSON object holding the end-to-end metrics; with `--trace 1` untraced and
traced rounds alternate and it holds the per-layer metrics instead. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import REF_NOMINAL_S, Clock, reference_batch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("fig1", "cli-seeds", "resample")
SETUP_PROBES = 9
SETUP_REF_S = 0.4  # reference work after each set-up probe, in seconds of timed work


def pin_environment() -> None:
    """One process, one BLAS thread, and the checkout's own `src/` first on the path."""
    os.environ.pop("SUBGOSS_WORKERS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))


def output_dir(workload: str) -> Path:
    path = ROOT / ".bench_out" / workload
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    pin_environment()
    try:
        import subgoss
        import workloads
    except ImportError as exc:
        print(f"cannot import the simulator from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(subgoss.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"subgoss was imported from {subgoss.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    outdir = output_dir(args.workload)
    work = workloads.WORKLOADS[args.workload](args.seed, outdir)
    tally = workloads.Tally()
    if args.trace:
        metrics = traced_run(work, tally, args.seconds, outdir)
    else:
        metrics = untraced_run(work, tally, args.seconds)
        metrics["setup_s"] = (setup_seconds(args.workload, args.seed), "s")

    print(f"workload {args.workload}, seed {args.seed}")
    for kind in tally.KINDS:
        print(f"  {kind}: attempted {tally.attempted[kind]}, failed {tally.failed[kind]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed["checks"] == 0,
        "attempted": sum(tally.attempted.values()),
        "failed": sum(tally.failed.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def timed_round(work, tally, clock):
    """One round: (seconds timed, the same at nominal host speed, seconds in the run
    operation at nominal host speed, agent-steps, seconds spent with reference pieces)."""
    clock.start_round()
    run_nominal, agent_steps = work.run_round(tally, clock)
    return clock.work, clock.nominal, run_nominal, agent_steps, clock.spent


def check_outputs(work, tally, digests) -> None:
    for i, d in enumerate(digests[1:], start=2):
        tally.check(d == digests[0], f"round {i} outputs differ from round 1")
    work.check(tally)


def more_rounds(spent: list, seconds: float) -> bool:
    """Whole rounds only: go on while one more round of the mean length still fits."""
    return not spent or sum(spent) * (1 + 1 / len(spent)) <= seconds


def untraced_run(work, tally, seconds: float) -> dict:
    clock = Clock()
    raw, walls, rates, spent, digests = [], [], [], [], []
    while more_rounds(spent, seconds):
        wall, wall_nominal, run_nominal, agent_steps, took = timed_round(work, tally, clock)
        raw.append(wall)
        walls.append(wall_nominal)
        rates.append(agent_steps / run_nominal)
        spent.append(took)
        digests.append(work.digest())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("round wall_s as timed: " + " ".join(f"{w:.4f}" for w in raw))
    print("round wall_s at nominal host speed: " + " ".join(f"{w:.4f}" for w in walls))
    print("round agent_steps_per_s at nominal host speed: "
          + " ".join(f"{r:.1f}" for r in rates))
    check_outputs(work, tally, digests)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "agent_steps_per_s": (statistics.median(rates), "agent-steps/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def traced_run(work, tally, seconds: float, outdir: Path) -> dict:
    from tracing import Tracer, layer_metrics  # imports numpy: only after pin_environment

    tracer = Tracer()
    clock = Clock()
    plain, traced, spent, digests = [], [], [], []
    while more_rounds(spent, seconds):
        # alternate which of the pair goes first, so what drift is left cancels
        took = 0.0
        for with_trace in (False, True) if len(plain) % 2 == 0 else (True, False):
            if not with_trace:
                _, wall, *_, round_spent = timed_round(work, tally, clock)
                plain.append(wall)
            else:
                tracer.install()
                try:
                    _, wall, *_, round_spent = timed_round(work, tally, clock)
                    traced.append(wall)
                finally:
                    tracer.uninstall()
            took += round_spent
            digests.append(work.digest())
        spent.append(took)
    check_outputs(work, tally, digests)
    tracer.save(outdir / "trace.npz")
    metrics = layer_metrics(tracer, len(traced), work.steps)
    metrics["trace.wall_s"] = (statistics.median(traced), "s")
    metrics["trace.untraced_wall_s"] = (statistics.median(plain), "s")
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    return metrics


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from spawning a fresh interpreter to the end of the workload's set-up,
    at nominal host speed."""
    samples, nominal = [], []
    before = reference_batch(0.0)
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed ({proc.returncode})")
        after = reference_batch(SETUP_REF_S)
        samples.append(t1 - t0)
        nominal.append(samples[-1] * REF_NOMINAL_S / statistics.median(before + after))
        before = after
    print("set-up probes as timed: " + " ".join(f"{s:.4f}" for s in samples))
    print("set-up probes at nominal host speed: " + " ".join(f"{s:.4f}" for s in nominal))
    return statistics.median(nominal)


def run_all(args) -> int:
    """Every workload in its own process; the last line sums them up."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            code = code or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main())
