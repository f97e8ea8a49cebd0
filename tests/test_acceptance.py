"""End-to-end acceptance suite.

One test per criterion, each registering a single pass/fail line that the
terminal-summary hook in conftest.py replays after the run. The heavyweight
multi-policy comparison runs are shared between the ordering criterion and the
bound-dominance criterion through a module-scoped fixture.

Criterion 6 (collaboration ordering) fails honestly on its
single-agent-vs-ambient-baseline leg at T = 2x10^4: the single-agent phased
policy is still paying ~38% of its plays in forced exploration at this
horizon, leaving it statistically indistinguishable from the ambient baseline
(mean ordering flips with the seed set; 95% intervals overlap), so the
required interval separation cannot hold. The failure message carries the
measured means.
"""

import math

import numpy as np
import pytest

import conftest

from subgoss import bounds as bounds_mod
from subgoss.cli import main as cli_main
from subgoss.harness import RunConfig, aggregate, instance_gap, run
from subgoss.linalg import (
    ExploreStats,
    LinUcbStats,
    explore_estimate,
    project,
    random_orthonormal_basis,
)
from subgoss.network import complete_graph, estimate_spread_moment

from test_network import spread_moment_dp_oracle

T_BIG = 20_000
FIG1 = dict(d=24, m=2, K=12)


def report(num: int, ok: bool, detail: str) -> bool:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.acceptance_lines.append(line)
    print(line, flush=True)
    return ok


def rng_for(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


# ---------------------------------------------------------------------------
# criterion 1: estimator oracle equivalence


def dense_explore_oracle(basis, plays):
    """Least-squares over the played basis columns via pseudo-inverse."""
    A = np.stack([basis.columns[:, c] for c, _ in plays])
    y = np.array([r for _, r in plays])
    return np.linalg.pinv(A) @ y


def dense_ridge_oracle(basis, actions, rewards, lam):
    """Ridge restricted to the subspace, solved in ambient coordinates."""
    P = basis.columns @ basis.columns.T
    B = np.stack(actions) @ P
    M = lam * P + B.T @ B
    return np.linalg.pinv(M) @ (B.T @ np.asarray(rewards))


def test_criterion_1_estimator_oracles():
    r = rng_for(101)
    worst = 0.0
    for _ in range(200):
        d = int(r.integers(3, 9))
        m = int(r.integers(1, min(3, d - 1) + 1))
        basis = random_orthonormal_basis(d, m, r)
        theta = r.standard_normal(d)

        # explore estimate vs dense least squares on the played columns
        stats = ExploreStats(m)
        plays = []
        for _ in range(int(r.integers(2 * m, 6 * m))):
            c = stats.next_column()
            rew = float(basis.columns[:, c] @ theta + r.standard_normal())
            stats.add_play(c, rew)
            plays.append((c, rew))
        if np.all(stats.count > 0):
            est = explore_estimate(stats, basis)
            oracle = dense_explore_oracle(basis, plays)
            worst = max(worst, float(np.max(np.abs(est - oracle))))

        # m-coordinate ridge vs ambient projected-ridge pseudo-inverse oracle
        lam = float(r.uniform(0.5, 2.0))
        lstats = LinUcbStats(m, lam)
        actions, rewards = [], []
        for _ in range(int(r.integers(1, 12))):
            a = r.standard_normal(d)
            a /= np.linalg.norm(a)
            rew = float(a @ theta + r.standard_normal())
            lstats.add_play_coords(basis.columns.T @ a, rew)
            actions.append(a)
            rewards.append(rew)
        ridge_ambient = basis.columns @ lstats.theta_hat()
        oracle = dense_ridge_oracle(basis, actions, rewards, lam)
        worst = max(worst, float(np.max(np.abs(ridge_ambient - oracle))))

    ok = worst < 1e-9
    assert report(1, ok, f"max estimator deviation {worst:.3e} (tol 1e-9)")


# ---------------------------------------------------------------------------
# criterion 2: confidence-set coverage


def test_criterion_2_confidence_coverage():
    cfg = RunConfig(d=6, m=2, K=3, T=2000, policy="genie",
                    delta=0.05, track_coverage=True, master_seed=2, n_seeds=500)
    covered = sum(res.coverage_ok for res in run(cfg))
    frac = covered / 500
    ok = frac >= 0.92
    assert report(2, ok, f"all-t coverage in {covered}/500 seeds = {frac:.3f} (need >= 0.92)")


# ---------------------------------------------------------------------------
# criterion 3: projected optimistic-play regret bound


def test_criterion_3_projected_regret_bound():
    cfg = RunConfig(T=10_000, policy="genie", master_seed=3, n_seeds=500, **FIG1)
    bound = bounds_mod.projected_linucb_bound(10_000, 2, 1.0, 1e-4)
    within = 0
    r_mid, r_end = [], []
    for res in run(cfg):
        cum = res.cum_regret()[0]
        within += cum[-1] <= bound
        r_mid.append(cum[2499])
        r_end.append(cum[-1])
    norm_mid = np.mean(r_mid) / math.sqrt(2500)
    norm_end = np.mean(r_end) / math.sqrt(10_000)
    ratio = norm_end / norm_mid
    ok = within >= 499 and ratio <= 1.6
    assert report(
        3, ok,
        f"{within}/500 seeds below bound {bound:.1f} (need >= 499); "
        f"sqrt-normalized growth ratio {ratio:.3f} (need <= 1.6)",
    )


# ---------------------------------------------------------------------------
# criterion 4: subspace-estimate tail bound


def test_criterion_4_tail_bound():
    m, d, trials = 2, 6, 5000
    basis = random_orthonormal_basis(d, m, rng_for(41))
    theta = rng_for(42).standard_normal(d)
    theta /= np.linalg.norm(theta)
    ptheta = project(basis, theta)
    col_values = basis.columns.T @ theta
    r = rng_for(43)
    details = []
    ok = True
    for n in (16, 64, 256):
        per_col = n // m
        for eps in (0.3, 0.5):
            noise = r.standard_normal((trials, m, per_col))
            ests = (col_values + noise.mean(axis=2)) @ basis.columns.T
            errs = np.linalg.norm(ests - ptheta, axis=1)
            p_hat = float(np.mean(errs > eps))
            bound = bounds_mod.lemma2_tail_count(eps, m, n)
            sigma = math.sqrt(max(p_hat * (1 - p_hat), 1e-6) / trials)
            this_ok = p_hat <= bound + 3 * sigma
            ok = ok and this_ok
            details.append(f"n={n},eps={eps}: {p_hat:.4f}<={min(bound, 1):.4f}+3s")
    assert report(4, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 5: freeze and communication cap


def test_criterion_5_freeze_and_spread():
    cfg = RunConfig(T=T_BIG, N=4, policy="subgoss_multi", noise_std=1.0,
                    master_seed=5, n_seeds=100, **FIG1)
    comm_cap = math.ceil(math.log2(1 + T_BIG)) + 1
    frozen = 0
    comm_ok = True
    for res in run(cfg):
        if res.freeze_phase is not None:
            frozen += 1
            for recs in res.recommendations[res.freeze_phase - 1:]:
                assert all(k == cfg.true_index for k in recs)
        comm_ok = comm_ok and int(res.comm_count.max()) <= comm_cap
    ok = frozen >= 95 and comm_ok
    assert report(
        5, ok,
        f"freeze in {frozen}/100 seeds (need >= 95); per-agent comm <= {comm_cap}: {comm_ok}",
    )


# ---------------------------------------------------------------------------
# criteria 6 and 7 share the four comparison runs


@pytest.fixture(scope="module")
def comparison_runs():
    configs = {
        "multi4": RunConfig(T=T_BIG, N=4, policy="subgoss_multi", master_seed=6, **FIG1),
        "multi2": RunConfig(T=T_BIG, N=2, policy="subgoss_multi", master_seed=6, **FIG1),
        "single": RunConfig(T=T_BIG, N=1, policy="subgoss_single", master_seed=6, **FIG1),
        "oful": RunConfig(T=T_BIG, N=1, policy="oful", master_seed=6, **FIG1),
    }
    return configs, {name: run(cfg) for name, cfg in configs.items()}


def test_criterion_6_collaboration_ordering(comparison_runs):
    _, results = comparison_runs
    stats = {}
    for name, res in results.items():
        agg = aggregate(res)
        stats[name] = (agg.mean_curve[-1], agg.ci95_low[-1], agg.ci95_high[-1])
    detail = ", ".join(f"{k}={v[0]:.0f} [{v[1]:.0f},{v[2]:.0f}]" for k, v in stats.items())
    ordering = (
        stats["multi4"][0] < stats["multi2"][0] < stats["single"][0] < stats["oful"][0]
    )
    ci_sep = (
        stats["multi4"][2] < stats["single"][1]
        and stats["single"][2] < stats["oful"][1]
    )
    ok = ordering and ci_sep
    report(6, ok, f"final per-agent regret: {detail}")
    assert ok, (
        "collaboration ordering not established at T=2e4: "
        f"{detail}. The multi4 < multi2 < single legs hold with separated "
        "intervals; single vs oful is statistically indistinguishable at this "
        "horizon (the mean ordering flips with the seed set and the intervals "
        "overlap), so the required interval separation cannot hold. Longer "
        "horizons do not separate them either (tools/horizon_table.py): at "
        "T=1e5 the intervals still overlap (single 8744 [7780, 9708], oful "
        "10223 [9394, 11052]), and at T=4e5 the means are equal (17851 "
        "against 17879)."
    )


def test_criterion_7_bound_dominance(comparison_runs):
    configs, results = comparison_runs
    grid = (1000, 10_000, T_BIG)
    sm_rng = rng_for(71)
    spread = {
        "multi4": estimate_spread_moment(complete_graph(4), 2.0, 2000, sm_rng).mean,
        "multi2": estimate_spread_moment(complete_graph(2), 2.0, 2000, sm_rng).mean,
    }
    worst_margin = math.inf
    ok = True
    for name in ("multi4", "multi2", "single"):
        cfg = configs[name]
        tau = bounds_mod.tau0(cfg.b, cfg.m, cfg.K, max(cfg.N, 1))
        for s, res in enumerate(results[name]):
            gap = instance_gap(cfg, s)
            mean_cum = res.cum_regret().mean(axis=0)
            for T in grid:
                inputs = bounds_mod.BoundInputs(
                    T=T, d=cfg.d, m=cfg.m, K=cfg.K, N=max(cfg.N, 1), b=cfg.b,
                    lam=cfg.lam, delta=min(0.5, 1.0 / cfg.T), S=cfg.s_bound,
                    Delta=gap, spread_moment=spread.get(name, 1.0),
                )
                if name == "single":
                    total = bounds_mod.single_agent_bound(inputs).total
                else:
                    total = bounds_mod.theorem1_bound(inputs, tau).total
                emp = mean_cum[T - 1]
                ok = ok and emp <= total
                worst_margin = min(worst_margin, total / max(emp, 1e-9))
    assert report(
        7, ok,
        f"empirical regret below closed-form bound on all of T={grid}; "
        f"smallest bound/empirical ratio {worst_margin:.1f}",
    )


# ---------------------------------------------------------------------------
# criterion 8: rumor spread


def test_criterion_8_rumor_spread():
    g16 = complete_graph(16)
    est16 = estimate_spread_moment(g16, 2.0, 2000, rng_for(81))
    mean_tau = float(est16.taus.mean())

    g8 = complete_graph(8)
    oracle = spread_moment_dp_oracle(g8, 1.3)
    est8 = estimate_spread_moment(g8, 1.3, 2000, rng_for(82))
    dp_ok = abs(est8.mean - oracle) <= 3 * est8.stderr
    ok = mean_tau <= 8.77 and dp_ok
    assert report(
        8, ok,
        f"N=16 mean spread time {mean_tau:.3f} (cap 8.77); "
        f"N=8 moment {est8.mean:.4f} vs exact {oracle:.4f} within 3 SE: {dp_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 9: phase-threshold consistency


def test_criterion_9_tau0_grid():
    worst = -math.inf
    count = 0
    for b in (1.3, 1.7, 2.0, 2.5, 3.5):
        for m in (1, 2):
            for ratio in (1, 2, 3, 4, 8):
                t = bounds_mod.tau0(b, m, 8 * ratio, 8)
                cap = 2 * math.log(16 * m * (ratio + 2)) / math.log(b) + 1
                worst = max(worst, t - cap)
                count += 1
    ok = worst <= 0
    assert report(9, ok, f"{count}-point grid, max tau0 excess over cap {worst:.3f} (need <= 0)")


# ---------------------------------------------------------------------------
# criterion 10: determinism of the CLI pipeline


def test_criterion_10_determinism(tmp_path):
    import json

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(
        {"d": 24, "m": 2, "K": 12, "N": 4, "T": 500,
         "policy": "subgoss_multi", "n_seeds": 3, "master_seed": 10}
    ))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        raw = tmp_path / f"{tag}_raw.csv"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--raw-out", str(raw)]) == 0
        outs.append((out.read_bytes(), raw.read_bytes()))
    ok = outs[0] == outs[1]
    assert report(10, ok, f"two identical runs, byte-identical CSVs: {ok}")
