"""The benchmark's workloads: configs made from the workload seed, timed rounds, output checks.

A workload object is built from (seed, output directory); building it is the
set-up, and it is all a set-up probe does. `run_round` runs one round of the
workload's operations through the package's public API, each timed as a
segment of the `hostspeed.Clock` it is given, `digest` fingerprints
the round's outputs, and `check` tests the last round's outputs against
closed forms and properties computed here, apart from the package. Rounds of
one run repeat the same inputs, so every round must give the same digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

import oracles
from subgoss import cli, harness

# the Fig-1 instance shape, shared by the workloads that build RunConfigs
SHAPE = dict(d=24, m=2, K=12, b=2.0, lam=1.0, s_bound=1.0)
SPREAD_TRIALS = 2000
# print precision of the CSVs: 13 significant digits, half a unit in the last
CSV_REL = 5e-13
# rounding allowed on an instant regret: vstar and the played value are computed
# along different float paths, so a zero regret can read as -1e-16
REGRET_ROUNDING = 16 * np.finfo(float).eps


class Tally:
    """Operations attempted and failed, by kind."""

    KINDS = ("seeds", "commands", "checks")

    def __init__(self):
        self.attempted = dict.fromkeys(self.KINDS, 0)
        self.failed = dict.fromkeys(self.KINDS, 0)

    def check(self, ok: bool, what: str) -> None:
        self.attempted["checks"] += 1
        if not ok:
            self.failed["checks"] += 1
            print(f"check failed: {what}", file=sys.stderr)

    def seeds(self, config):
        """harness.run(config); None, with every seed counted failed, if it raises."""
        self.attempted["seeds"] += config.n_seeds
        try:
            return harness.run(config)
        except Exception:
            traceback.print_exc()
            self.failed["seeds"] += config.n_seeds
            return None

    def command(self, argv) -> str | None:
        """cli.main(argv) with its standard output captured; None unless it exits 0."""
        self.attempted["commands"] += 1
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        if code != 0:
            self.failed["commands"] += 1
            print(f"command failed ({code}): subgoss {' '.join(argv)}", file=sys.stderr)
            return None
        return out.getvalue()


def _results_digest(results) -> str:
    h = hashlib.sha256()
    for r in results or ():
        h.update(r.inst_regret.tobytes())
        h.update(r.comm_count.tobytes())
        h.update(repr((r.seed, r.n_phases, r.freeze_phase, r.recommendations)).encode())
    return h.hexdigest()


def _same_result(a, b) -> bool:
    return _results_digest([a]) == _results_digest([b])


def check_regret_range(tally, name, results, s_bound) -> None:
    """Instant regret is a value gap between two actions of norm <= 1: it lies in [0, 2S]."""
    tol = REGRET_ROUNDING * s_bound
    for r in results:
        x = r.inst_regret
        tally.check(
            x.min() >= -tol and x.max() <= 2.0 * s_bound + tol,
            f"{name} seed {r.seed}: inst_regret in [{x.min():.3g}, {x.max():.3g}], "
            f"outside [0, {2 * s_bound}]",
        )


def check_phases(tally, name, results, T, b) -> None:
    started, complete = oracles.phase_counts(T, b)
    for r in results:
        tally.check(
            bool(np.all(r.comm_count == complete)),
            f"{name} seed {r.seed}: comm_count {r.comm_count.tolist()}, expected {complete}",
        )
        tally.check(
            r.n_phases == started,
            f"{name} seed {r.seed}: n_phases {r.n_phases}, expected {started}",
        )


def check_interval(tally, what, curves, mean, low, high, atol) -> None:
    """mean +- 1.96 sd/sqrt(n) over curves (n x T), recomputed here, matches the program's."""
    n = curves.shape[0]
    m = curves.mean(axis=0)
    half = 1.96 * curves.std(axis=0, ddof=1) / math.sqrt(n)
    err = max(
        np.max(np.abs(m - mean)), np.max(np.abs(m - half - low)), np.max(np.abs(m + half - high))
    )
    tally.check(err <= atol, f"{what}: 95% interval differs from recomputation by {err:.3g}")


def check_rerun(tally, name, config, result) -> None:
    """One seed simulated again, outside the timed part, is byte-identical."""
    try:
        again = harness.run_one_seed(config, result.seed)
    except Exception:
        traceback.print_exc()
        again = None
    tally.check(
        again is not None and _same_result(again, result),
        f"{name} seed {result.seed}: re-run differs",
    )


class Fig1:
    """The paper's Fig-1 comparison: five policies, two seeds each, aggregated, no files."""

    POLICIES = (
        ("multi4", "subgoss_multi", 4),
        ("multi2", "subgoss_multi", 2),
        ("single", "subgoss_single", 1),
        ("oful", "oful", 1),
        ("genie", "genie", 1),
    )

    def __init__(self, seed: int, outdir: Path):
        self.configs = {
            name: harness.RunConfig(
                **SHAPE, T=20_000, N=N, policy=policy, n_seeds=2, master_seed=seed
            )
            for name, policy, N in self.POLICIES
        }
        self.steps = sum(c.n_seeds * c.T for c in self.configs.values())
        self.results = {}
        self.aggregates = {}

    def run_round(self, tally, clock):
        run_s, agent_steps = 0.0, 0
        self.results, self.aggregates = {}, {}
        for name, config in self.configs.items():
            with clock.segment() as span:
                results = tally.seeds(config)
            run_s += span.nominal
            if results is None:
                continue
            agent_steps += config.N * config.T * config.n_seeds
            self.results[name] = results
            with clock.segment():
                try:
                    self.aggregates[name] = harness.aggregate(results)
                except Exception:
                    traceback.print_exc()
        return run_s, agent_steps

    def digest(self) -> str:
        return _results_digest([r for rs in self.results.values() for r in rs])

    def check(self, tally) -> None:
        for name, config in self.configs.items():
            results = self.results.get(name, [])
            tally.check(len(results) == config.n_seeds, f"{name}: {len(results)} results")
            check_regret_range(tally, name, results, config.s_bound)
            if config.policy == "subgoss_multi":
                check_phases(tally, name, results, config.T, config.b)
            if config.policy in ("genie", "oful"):
                dim = config.m if config.policy == "genie" else config.d
                delta = min(0.5, 1.0 / config.T)
                bound = oracles.linucb_regret_bound(config.T, dim, config.lam, delta, config.s_bound)
                for r in results:
                    final = float(r.inst_regret.sum())
                    tally.check(
                        final < bound,
                        f"{name} seed {r.seed}: final regret {final:.6g} >= bound {bound:.6g}",
                    )
            agg = self.aggregates.get(name)
            if agg is None or not results:
                tally.check(False, f"{name}: no aggregate")
                continue
            curves = np.vstack([np.cumsum(r.inst_regret, axis=1).mean(axis=0) for r in results])
            check_interval(
                tally, f"{name} aggregate", curves, agg.mean_curve, agg.ci95_low,
                agg.ci95_high, atol=1e-9 * max(1.0, float(curves.max())),
            )
        results = self.results.get("multi2")
        if results:
            check_rerun(tally, "multi2", self.configs["multi2"], results[0])
        else:
            tally.check(False, "multi2: nothing to re-run")


class Resample:
    """subgoss_multi N=4 with a fresh action set drawn every step."""

    def __init__(self, seed: int, outdir: Path):
        self.config = harness.RunConfig(
            **SHAPE, T=2000, N=4, policy="subgoss_multi", n_seeds=2, master_seed=seed,
            resample_actions_per_step=True,
        )
        self.steps = self.config.n_seeds * self.config.T
        self.results = []

    def run_round(self, tally, clock):
        with clock.segment() as span:
            self.results = tally.seeds(self.config) or []
        c = self.config
        return span.nominal, c.N * c.T * c.n_seeds if self.results else 0

    def digest(self) -> str:
        return _results_digest(self.results)

    def check(self, tally) -> None:
        c = self.config
        tally.check(len(self.results) == c.n_seeds, f"resample: {len(self.results)} results")
        check_regret_range(tally, "resample", self.results, c.s_bound)
        check_phases(tally, "resample", self.results, c.T, c.b)
        if self.results:
            check_rerun(tally, "resample", c, self.results[0])
        else:
            tally.check(False, "resample: nothing to re-run")


class CliSeeds:
    """The README flow through cli.main: run with raw output, spread, bounds."""

    N_SEEDS = 16
    T = 2000

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self.config = {
            "d": 24, "m": 2, "K": 12, "N": 4, "T": self.T, "b": 2.0, "lambda": 1.0,
            "policy": "subgoss_multi", "n_seeds": self.N_SEEDS, "master_seed": seed,
        }
        self.config_path = outdir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n")
        self.agg_path = outdir / "regret.csv"
        self.raw_path = outdir / "raw.csv"
        self.bounds_path = outdir / "bounds.csv"
        self.rerun_path = outdir / "rerun.csv"
        self.steps = self.N_SEEDS * self.T
        self.spread_out = None

    def run_round(self, tally, clock):
        cfg = str(self.config_path)
        for path in (self.agg_path, self.raw_path, self.bounds_path):
            path.unlink(missing_ok=True)  # a failed command must not leave older files to check
        with clock.segment() as span:
            ran = tally.command(
                ["run", "--config", cfg, "--out", str(self.agg_path),
                 "--raw-out", str(self.raw_path)]
            )
        with clock.segment():
            self.spread_out = tally.command(
                ["spread", "--n-agents", "4", "--b", "2", "--trials", str(SPREAD_TRIALS),
                 "--seed", str(self.seed)]
            )
        # "spread_moment_b2: <mean> +- <stderr>"; without it the bounds command cannot run
        moment = (_spread_field(self.spread_out, "spread_moment_b2") or "?").split()[0]
        with clock.segment():
            tally.command(
                ["bounds", "--config", cfg, "--out", str(self.bounds_path),
                 "--spread-moment", moment]
            )
        c = self.config
        return span.nominal, c["N"] * c["T"] * c["n_seeds"] if ran is not None else 0

    def digest(self) -> str:
        h = hashlib.sha256()
        for p in (self.agg_path, self.raw_path, self.bounds_path):
            h.update(p.read_bytes() if p.exists() else b"missing")
        h.update((self.spread_out or "").encode())
        return h.hexdigest()

    def check(self, tally) -> None:
        c = self.config
        n, N, T = c["n_seeds"], c["N"], c["T"]
        raw = _read_csv(self.raw_path, ["t", "seed", "agent", "inst_regret", "cum_regret"])
        tally.check(
            raw is not None and raw.shape[0] == n * N * T,
            f"raw CSV rows {None if raw is None else raw.shape[0]}, expected {n * N * T}",
        )
        if raw is not None and raw.shape[0] == n * N * T:
            cube = raw.reshape(n, N, T, 5)
            layout = (
                np.array_equal(cube[..., 0], np.broadcast_to(np.arange(1, T + 1), (n, N, T)))
                and np.array_equal(cube[..., 1], np.broadcast_to(np.arange(n)[:, None, None], (n, N, T)))
                and np.array_equal(cube[..., 2], np.broadcast_to(np.arange(N)[None, :, None], (n, N, T)))
            )
            tally.check(layout, "raw CSV rows are not ordered by seed, agent, t")
            inst, cum = cube[..., 3], cube[..., 4]
            tally.check(
                inst.min() >= -REGRET_ROUNDING and inst.max() <= 2.0 + REGRET_ROUNDING,
                f"raw inst_regret in [{inst.min():.3g}, {inst.max():.3g}], outside [0, 2]",
            )
            running = np.cumsum(inst, axis=-1)
            tol = 2 * CSV_REL * (np.cumsum(np.abs(inst), axis=-1) + np.abs(cum)) + 1e-15
            tally.check(
                bool(np.all(np.abs(running - cum) <= tol)),
                f"cum_regret is not the running sum of inst_regret "
                f"(worst {np.max(np.abs(running - cum)):.3g})",
            )
            agg = _read_csv(self.agg_path, ["t", "mean", "ci_low", "ci_high"])
            if agg is None or agg.shape[0] != T:
                tally.check(False, "aggregate CSV missing or of the wrong length")
            else:
                curves = cum.mean(axis=1)
                check_interval(
                    tally, "aggregate CSV", curves, agg[:, 1], agg[:, 2], agg[:, 3],
                    atol=1e-9 * max(1.0, float(curves.max())),
                )
        self._check_bounds(tally)
        self._check_spread(tally)
        self._check_rerun(tally)

    def _check_bounds(self, tally) -> None:
        c = self.config
        rows = _read_csv(
            self.bounds_path, ["t", "projected_linucb", "communication", "exploration", "total"]
        )
        if rows is None or rows.shape[0] != c["T"]:
            tally.check(False, "bounds CSV missing or of the wrong length")
            return
        t, proj, comm, expl, total = rows.T
        tally.check(np.array_equal(t, np.arange(1, c["T"] + 1)), "bounds CSV t column")
        parts = proj + comm + expl
        tally.check(
            bool(np.all(np.abs(parts - total) <= 4 * CSV_REL * (np.abs(total) + parts))),
            "bounds CSV: total is not the sum of its three terms",
        )
        want = np.array([
            oracles.exploration_term(int(s), c["m"], c["K"], c["N"], c["b"]) for s in t
        ])
        err = float(np.max(np.abs(expl - want) / want))
        tally.check(err <= 2 * CSV_REL, f"bounds CSV: exploration term off by {err:.3g} (relative)")

    def _check_spread(self, tally) -> None:
        mean_tau = _spread_field(self.spread_out, "mean_tau")
        exact, var = oracles.pull_spread_moments(4)
        se = math.sqrt(var / SPREAD_TRIALS)
        # the CLI prints mean_tau to 6 significant digits
        ok = mean_tau is not None and abs(float(mean_tau) - exact) <= 4 * se + 1e-5 * exact
        tally.check(
            ok, f"spread mean_tau {mean_tau} not within 4 SE ({se:.3g}) of exact {exact:.6g}"
        )

    def _check_rerun(self, tally) -> None:
        """Seed 0 again through the CLI: the same bytes as its block of the raw CSV."""
        self.rerun_path.unlink(missing_ok=True)
        out = tally.command(
            ["run", "--config", str(self.config_path), "--out", str(self.rerun_path),
             "--n-seeds", "1"]
        )
        rows = 1 + self.config["N"] * self.config["T"]
        same = False
        if out is not None and self.raw_path.exists():
            with open(self.raw_path, "rb") as fh:
                head = b"".join(fh.readline() for _ in range(rows))
            same = head == self.rerun_path.read_bytes()
        tally.check(same, "seed 0 re-run through the CLI differs from the raw CSV")


def _spread_field(text, key):
    for line in (text or "").splitlines():
        name, _, value = line.partition(":")
        if name == key:
            return value.strip()
    return None


def _read_csv(path: Path, header: list):
    try:
        with open(path) as fh:
            if fh.readline().strip().split(",") != header:
                return None
            return np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError):
        return None


WORKLOADS = {"fig1": Fig1, "cli-seeds": CliSeeds, "resample": Resample}
