"""Config parsing, seed orchestration, aggregation, and CSV output."""

import json
import re

import numpy as np
import pytest

from subgoss.errors import InvalidConfigError
from subgoss.harness import (
    Aggregate,
    RunConfig,
    aggregate,
    build_gossip,
    config_from_dict,
    emit_csv,
    instance_gap,
    load_config,
    parse_aggregate_csv,
    run,
    run_one_seed,
)
from subgoss.policies import RunResult


def fake_result(curves, seed=0):
    inst = np.asarray(curves, dtype=float)
    return RunResult(
        inst_regret=inst,
        seed=seed,
        n_phases=0,
        freeze_phase=None,
        recommendations=[],
        comm_count=np.zeros(inst.shape[0], dtype=np.int64),
        events=[],
    )


def small_config(**kw):
    base = dict(d=6, m=1, K=4, N=2, T=120, policy="subgoss_multi", n_seeds=2,
                master_seed=5)
    base.update(kw)
    return RunConfig(**base)


class TestRunConfig:
    def test_lambda_alias(self):
        cfg = config_from_dict(
            {"d": 6, "m": 1, "K": 4, "N": 2, "T": 10, "lambda": 2.5,
             "policy": "genie"}
        )
        assert cfg.lam == 2.5

    def test_unknown_key(self):
        with pytest.raises(InvalidConfigError):
            config_from_dict({"d": 6, "m": 1, "K": 4, "T": 10, "bogus": 1})

    def test_divisibility(self):
        with pytest.raises(InvalidConfigError):
            small_config(K=12, N=5)

    def test_fixed_delta_requires_value(self):
        with pytest.raises(InvalidConfigError):
            small_config(delta_mode="fixed")
        cfg = small_config(delta_mode="fixed", delta=0.05)
        assert cfg.policy_params().delta_value() == 0.05

    def test_one_over_t_delta(self):
        assert small_config(T=400).policy_params().delta_value() == 1 / 400

    def test_unknown_policy(self):
        with pytest.raises(InvalidConfigError):
            small_config(policy="thompson")

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"d": 1}, "d must be an integer >= 2"),
            ({"m": 6}, "need m < d"),
            ({"true_index": 4}, "true_index < K"),
            ({"master_seed": -1}, "master_seed must be an integer >= 0"),
            ({"n_extra_actions": 0}, "n_extra_actions must be null or an integer >= 1"),
            ({"noise_std": -0.5}, "noise_std must be a number >= 0"),
            ({"s_bound": float("nan")}, "s_bound must be a number > 0"),
            ({"track_coverage": 1}, "track_coverage must be true or false"),
            ({"explore_budget_mode": "greedy"}, "explore_budget_mode must be"),
            ({"delta_mode": "fixed", "delta": 1.5}, "delta in (0, 1)"),
        ],
    )
    def test_field_type_and_domain_checked(self, overrides, message):
        with pytest.raises(InvalidConfigError, match=re.escape(message)):
            small_config(**overrides)

    def test_default_extra_actions(self):
        assert small_config().extra_actions == 30

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"d": 6, "m": 1, "K": 4, "T": 50, "policy": "genie"}))
        assert load_config(path).T == 50

    def test_load_bad_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("not json")
        with pytest.raises(InvalidConfigError):
            load_config(path)


class TestBuildGossip:
    def test_complete(self):
        g = build_gossip(small_config())
        assert g.n_agents == 2

    def test_non_multi_policy_skips(self):
        assert build_gossip(small_config(policy="genie", N=1)) is None

    def test_matrix_from_file(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps([[0.0, 1.0], [1.0, 0.0]]))
        g = build_gossip(small_config(gossip=str(path)))
        assert np.array_equal(g.probs, [[0, 1], [1, 0]])

    def test_size_mismatch(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(InvalidConfigError):
            build_gossip(small_config(N=4, K=4, gossip=str(path)))

    def test_invalid_matrix_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps([[0.5, 0.4], [1.0, 0.0]]))
        with pytest.raises(InvalidConfigError):
            build_gossip(small_config(gossip=str(path)))


class TestRun:
    def test_deterministic_per_seed(self):
        cfg = small_config()
        a = run_one_seed(cfg, 0)
        b = run_one_seed(cfg, 0)
        assert np.array_equal(a.inst_regret, b.inst_regret)
        assert a.recommendations == b.recommendations

    def test_different_seeds_differ(self):
        cfg = small_config()
        a = run_one_seed(cfg, 0)
        b = run_one_seed(cfg, 1)
        assert not np.array_equal(a.inst_regret, b.inst_regret)

    def test_all_policies_run(self):
        for policy, n in [("subgoss_multi", 2), ("subgoss_single", 1),
                          ("genie", 1), ("oful", 1)]:
            cfg = small_config(policy=policy, N=n, n_seeds=1)
            res = run(cfg)
            assert len(res) == 1
            assert res[0].inst_regret.shape == (n if policy == "subgoss_multi" else 1, 120)

    def test_worker_pool_matches_sequential(self, monkeypatch):
        cfg = small_config(n_seeds=3, T=60)
        seq = run(cfg)
        monkeypatch.setenv("SUBGOSS_WORKERS", "2")
        par = run(cfg)
        for a, b in zip(seq, par):
            assert np.array_equal(a.inst_regret, b.inst_regret)

    def test_instance_gap_positive(self):
        assert instance_gap(small_config()) > 0


class TestAggregate:
    def test_identical_curves_zero_width(self):
        res = [fake_result([[1.0] * 5]), fake_result([[1.0] * 5])]
        agg = aggregate(res)
        assert np.allclose(agg.ci95_low, agg.ci95_high)
        assert np.allclose(agg.mean_curve, np.cumsum([1.0] * 5))

    def test_two_curves_normal_ci(self):
        res = [fake_result([[0.0]]), fake_result([[2.0]])]
        agg = aggregate(res)
        assert agg.mean_curve[0] == pytest.approx(1.0)
        # std = sqrt(2), stderr = 1, CI = 1 +- 1.96
        assert agg.ci95_low[0] == pytest.approx(1.0 - 1.96)
        assert agg.ci95_high[0] == pytest.approx(1.0 + 1.96)

    def test_matches_independent_statistics_oracle(self):
        r = np.random.default_rng(0)
        res = [fake_result(r.random((1, 20)), seed=s) for s in range(30)]
        agg = aggregate(res)
        stack = np.vstack([x.cum_regret()[0] for x in res])
        mean = stack.sum(axis=0) / 30
        stderr = np.sqrt(((stack - mean) ** 2).sum(axis=0) / 29) / np.sqrt(30)
        assert np.max(np.abs(agg.mean_curve - mean)) < 1e-9
        assert np.max(np.abs(agg.ci95_high - (mean + 1.96 * stderr))) < 1e-9

    def test_agent_mean_vs_pooled(self):
        res = [fake_result([[0.0, 0.0], [2.0, 2.0]]), fake_result([[1.0, 1.0], [1.0, 1.0]])]
        agent_mean = aggregate(res, "agent_mean")
        pooled = aggregate(res, "pooled")
        assert agent_mean.n_curves == 2
        assert pooled.n_curves == 4
        assert agent_mean.mean_curve[0] == pooled.mean_curve[0] == pytest.approx(1.0)

    def test_single_curve_rejected(self):
        with pytest.raises(InvalidConfigError):
            aggregate([fake_result([[1.0]])])

    def test_unknown_mode(self):
        with pytest.raises(InvalidConfigError):
            aggregate([fake_result([[1.0]])] * 2, "median")

    def test_ci_ordering_invariant(self):
        r = np.random.default_rng(7)
        res = [fake_result(r.random((2, 15)), seed=s) for s in range(5)]
        agg = aggregate(res, "pooled")
        assert np.all(agg.ci95_low <= agg.mean_curve + 1e-12)
        assert np.all(agg.mean_curve <= agg.ci95_high + 1e-12)


class TestEmitCsv:
    def test_aggregate_round_trip(self, tmp_path):
        res = [fake_result([[0.5, 0.25]]), fake_result([[0.7, 0.1]])]
        agg = aggregate(res)
        path = tmp_path / "agg.csv"
        emit_csv(agg, path)
        back = parse_aggregate_csv(path)
        assert np.max(np.abs(back.mean_curve - agg.mean_curve)) < 1e-11
        assert np.max(np.abs(back.ci95_low - agg.ci95_low)) < 1e-11

    def test_one_point_curve_two_lines(self, tmp_path):
        agg = aggregate([fake_result([[1.0]]), fake_result([[1.0]])])
        path = tmp_path / "one.csv"
        emit_csv(agg, path)
        lines = path.read_bytes().split(b"\n")
        assert lines[0] == b"t,mean,ci_low,ci_high"
        assert len([l for l in lines if l]) == 2

    def test_lf_endings_and_precision(self, tmp_path):
        agg = aggregate([fake_result([[1 / 3]]), fake_result([[1 / 3]])])
        path = tmp_path / "p.csv"
        emit_csv(agg, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        # 12 significant digits of 1/3
        assert b"3.33333333333" in raw

    def test_raw_format(self, tmp_path):
        res = [fake_result([[0.5, 0.25], [0.1, 0.2]], seed=3)]
        path = tmp_path / "raw.csv"
        emit_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,seed,agent,inst_regret,cum_regret"
        assert len(lines) == 1 + 2 * 2
        t, seed, agent, ir, cr = lines[1].split(",")
        assert (t, seed, agent) == ("1", "3", "0")
        assert float(cr) == pytest.approx(0.5)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_config(policy="genie", N=1, T=40, n_seeds=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(aggregate(run(cfg)), p1)
        emit_csv(aggregate(run(cfg)), p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_freeze_phase_recorded_in_multi_runs():
    cfg = small_config(T=500, noise_std=0.5)
    res = run_one_seed(cfg, 0)
    assert res.freeze_phase is None or 1 <= res.freeze_phase <= res.n_phases
