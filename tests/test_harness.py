"""Config parsing, seed orchestration, aggregation, and CSV output."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgoss import policies
from subgoss.cli import main
from subgoss.environment import normal_rows, normalized_rows, resample_actions
from subgoss.errors import InvalidConfigError
from subgoss.harness import (
    _ROLE_ACTIONS,
    Aggregate,
    RunConfig,
    _fixed_fields,
    _instance,
    _rng,
    aggregate,
    build_gossip,
    config_from_dict,
    emit_csv,
    instance_gap,
    load_config,
    run,
    run_one_seed,
)
from subgoss.policies import RunResult


def fake_result(curves, seed=0):
    inst = np.asarray(curves, dtype=float)
    return RunResult(
        inst_regret=inst,
        explored=np.zeros(inst.shape, dtype=bool),
        played=np.zeros(inst.shape, dtype=np.uint8),
        seed=seed,
        n_phases=0,
        freeze_phase=None,
        recommendations=[],
        comm_count=np.zeros(inst.shape[0], dtype=np.int64),
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
        with pytest.raises(InvalidConfigError, match="delta must be null or a number"):
            small_config(delta="abc")
        assert small_config(delta=0.05).policy_params().delta_value() == 0.05
        cfg = config_from_dict(
            {"d": 6, "m": 1, "K": 4, "T": 10, "policy": "genie", "delta": 0.05}
        )
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
            ({"delta": 1.5}, "a number in (0, 1)"),
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

    @pytest.mark.parametrize(
        "policy, N", [("subgoss_multi", 2), ("subgoss_single", 1), ("genie", 1), ("oful", 1)]
    )
    def test_resampled_sets_are_the_draws_of_the_seeds_action_stream(
        self, monkeypatch, policy, N
    ):
        cfg = small_config(policy=policy, N=N, T=40, resample_actions_per_step=True)
        drawn = []

        def recording(rng, out):
            normal_rows(rng, out)
            drawn.extend(normalized_rows(out, out.copy()))  # W steps, as the sets hold them
            return out

        monkeypatch.setattr(policies, "normal_rows", recording)
        run_one_seed(cfg, 3)
        inst = _instance(cfg, 3)
        stream = _rng(cfg.master_seed, 3, _ROLE_ACTIONS)
        n_random = cfg.extra_actions
        assert len(drawn) == cfg.T
        for rows in drawn:
            assert np.array_equal(rows, resample_actions(inst, n_random, stream)[:n_random])

    @pytest.mark.parametrize("mode", ["experimental", "theoretical"])
    @pytest.mark.parametrize("policy, N", [("subgoss_multi", 2), ("subgoss_single", 1)])
    def test_huge_b_runs_as_a_large_one(self, policy, N, mode):
        # at T=50 both b leave phase 2 longer than the horizon, explored up to its
        # slots; b=1e200 puts its length and budget past int64
        runs = [run(small_config(policy=policy, N=N, T=50, b=b, explore_budget_mode=mode))
                for b in (1e10, 1e200)]
        for got, want in zip(*runs, strict=True):
            assert got.n_phases == want.n_phases == 2
            for field in dataclasses.fields(RunResult):
                a, b = getattr(got, field.name), getattr(want, field.name)
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, field.name

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
        agent_mean = aggregate(res)
        assert agent_mean.n_curves == 2
        assert agent_mean.mean_curve[0] == pytest.approx(1.0)
        # both seeds' agent means are 1, 2: a pooled interval over the four
        # agent curves would have width, the agent-mean one has none
        assert np.array_equal(agent_mean.ci95_low, agent_mean.ci95_high)

    def test_single_curve_rejected(self):
        with pytest.raises(InvalidConfigError):
            aggregate([fake_result([[1.0]])])

    def test_ci_ordering_invariant(self):
        r = np.random.default_rng(7)
        res = [fake_result(r.random((2, 15)), seed=s) for s in range(5)]
        agg = aggregate(res)
        assert np.all(agg.ci95_low <= agg.mean_curve + 1e-12)
        assert np.all(agg.mean_curve <= agg.ci95_high + 1e-12)


class TestEmitCsv:
    def test_aggregate_round_trip(self, tmp_path):
        res = [fake_result([[0.5, 0.25]]), fake_result([[0.7, 0.1]])]
        agg = aggregate(res)
        path = tmp_path / "agg.csv"
        emit_csv(agg, path)
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 0], [1, 2])
        assert np.max(np.abs(back[:, 1] - agg.mean_curve)) < 1e-11
        assert np.max(np.abs(back[:, 2] - agg.ci95_low)) < 1e-11
        assert np.max(np.abs(back[:, 3] - agg.ci95_high)) < 1e-11

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


def per_row_csv(results) -> bytes:
    """The raw CSV with one f-string per row: the reference for the block formatter."""
    lines = ["t,seed,agent,inst_regret,cum_regret\n"]
    for r in results:
        cum = r.cum_regret()
        for i in range(r.n_agents):
            rows = zip(range(1, r.T + 1), r.inst_regret[i].tolist(), cum[i].tolist())
            lines += [f"{t},{r.seed},{i},{x:.12e},{c:.12e}\n" for t, x, c in rows]
    return "".join(lines).encode()


class TestRawBlocks:
    """The raw CSV, formatted a (seed, agent) block at a time, has the bytes of the
    per-row f-string."""

    @pytest.mark.parametrize(
        "curves",
        [
            [[[0.5, 0.5, 0.25, 0.5, 0.25, 0.25]], [[0.25, 0.5, 0.5, 0.5, 0.25, 0.5]]],
            [[[0.0, -0.0, 0.0, -0.0, 1.0], [-0.0, -0.0, 0.0, 2.0, -0.0]]],
            [[[1e300, -3e-300, 1e300, 2.5e-300, 1.5e300, -1e300]], [[1e-300, 1e-300, 7e299]]],
            [[[-1e-16, 0.0, -1e-16, 2.5e-17, -1.1102230246251565e-16, 0.1]]],
        ],
        ids=["repeated", "signed-zeros", "exponents-300", "rounding-residue"],
    )
    def test_edge_values(self, tmp_path, curves):
        res = [fake_result(c, seed=s) for s, c in enumerate(curves)]
        path = tmp_path / "raw.csv"
        emit_csv(res, path)
        assert path.read_bytes() == per_row_csv(res)

    def test_resampled_run(self, tmp_path):
        # a fresh action set every step, with many random rows: few values repeat
        res = run(small_config(T=300, n_seeds=3, n_extra_actions=200,
                               resample_actions_per_step=True))
        path = tmp_path / "raw.csv"
        emit_csv(res, path)
        distinct = len(np.unique(res[0].inst_regret[0]))
        assert distinct > 100
        assert path.read_bytes() == per_row_csv(res)

    def test_single_seed_run_out(self, tmp_path):
        # with one seed, run --out writes the raw rows
        fields = {"d": 6, "m": 1, "K": 4, "N": 2, "T": 150, "master_seed": 3}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(fields))
        out = tmp_path / "out.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--n-seeds", "1"]) == 0
        assert out.read_bytes() == per_row_csv(run(RunConfig(**fields, n_seeds=1)))


def assert_fixed_fields(values):
    """`_fixed_fields` formats each value as f"{x:.12e}", with its separators, in
    both columns."""
    x = np.asarray(values, dtype=float).ravel()
    rows = _fixed_fields(np.stack([x, x], axis=-1)).view(np.uint8)
    got = rows.tobytes().decode("ascii").splitlines()
    wrong = [(v, g) for v, g in zip(x.tolist(), got) if g != f"{v:.12e},{v:.12e}"]
    assert len(got) == x.size and not wrong, wrong[:5]


def in_fixed_class(x):
    return x[(x >= 1e-99) & (x < 1e99)]


class TestFixedFields:
    """The fixed-width formatter against Python's `.12e`, which rounds the exact
    binary value half-to-even."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(1e-99, 1e99, exclude_max=True) | st.just(0.0), min_size=1))
    def test_any_value_of_the_class(self, values):
        assert_fixed_fields(values)

    def test_random_doubles(self):
        rng = np.random.default_rng(23)
        lo, hi = np.array([1e-99, 1e99]).view(np.int64)
        bits = rng.integers(lo, hi, 100_000).view(np.float64)  # uniform in the exponent
        assert_fixed_fields(bits)
        assert_fixed_fields(in_fixed_class(10.0 ** rng.uniform(-99, 99, 100_000)))
        assert_fixed_fields(rng.uniform(0, 2, 100_000))  # the range of instant regret

    def test_near_half_way_values(self):
        # (M + 0.5) * 10^(e - 12), the closest double to a tie of 13 digits, and
        # its neighbours: the values the rounding window must catch
        rng = np.random.default_rng(24)
        mantissas = rng.integers(10**12, 10**13, 20_000).tolist()
        exponents = rng.integers(-99, 99, 20_000).tolist()
        ties = np.array([float(f"{M}.5e{e - 12}") for M, e in zip(mantissas, exponents)])
        assert_fixed_fields(in_fixed_class(ties))
        assert_fixed_fields(in_fixed_class(np.nextafter(ties, 0)))
        assert_fixed_fields(in_fixed_class(np.nextafter(ties, np.inf)))

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-99, 99)])
        assert_fixed_fields(in_fixed_class(powers))
        assert_fixed_fields(in_fixed_class(np.nextafter(powers, 0)))
        assert_fixed_fields(in_fixed_class(np.nextafter(powers, np.inf)))

    def test_carries_and_zero(self):
        # 13 nines round up to the next exponent, up to 1.000000000000e+99
        assert_fixed_fields([float(f"9.9999999999995e{k}") for k in range(-99, 99)])
        assert_fixed_fields([float(f"9.9999999999994e{k}") for k in range(-99, 99)])
        assert_fixed_fields([float(f"9.9999999999996e{k}") for k in range(-99, 99)])
        assert_fixed_fields([float(f"9.99999999999996e{k}") for k in range(-99, 99)])
        assert_fixed_fields([9.99999999999995e98, np.nextafter(1e99, 0), 1e-99, 0.0])


    @pytest.mark.parametrize("shift", [-1.0, 1.0])
    def test_an_exponent_one_off_only_costs_the_f_string(self, monkeypatch, shift):
        # the exponent comes from log10; one too high or too low puts M outside
        # [10^12, 10^13), and the value is formatted by the f-string
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
        rng = np.random.default_rng(25)
        assert_fixed_fields(in_fixed_class(10.0 ** rng.uniform(-98, 98, 2000)))


class TestFixedWidthBlocks:
    """`emit_csv` has the bytes of the per-row f-string for blocks in and out of the
    fixed-width class, at every decade edge of T and for ids of two digits."""

    @pytest.mark.parametrize(
        "value",
        [-0.5, -0.0, 5e-324, 2.2e-308 / 4, 1e-100, np.inf, -np.inf, np.nan, 1e99, 3e300],
        ids=["negative", "minus-zero", "least-subnormal", "subnormal", "below-1e-99", "inf",
             "minus-inf", "nan", "1e99", "3e300"],
    )
    def test_a_block_outside_the_class_is_written_row_by_row(self, tmp_path, value):
        # agent 1 holds the value; agents 0 and 2, in the class, take the fixed path
        curves = [[0.25, 0.0, 1.5], [0.5, value, 0.125], [1e-99, 0.0, 7.0]]
        res = [fake_result(curves, seed=4), fake_result(curves[::-1], seed=5)]
        path = tmp_path / "raw.csv"
        emit_csv(res, path)
        assert path.read_bytes() == per_row_csv(res)

    def test_a_running_sum_of_1e99_or_more_leaves_the_class(self, tmp_path):
        res = [fake_result([[6e98, 6e98, 0.0], [6e98, 1e98, 1e98]])]
        path = tmp_path / "raw.csv"
        emit_csv(res, path)
        assert path.read_bytes() == per_row_csv(res)

    @pytest.mark.parametrize("T", [1, 9, 10, 11, 99, 100, 1000, 10**4, 10**4 + 1])
    def test_decade_edges_of_t(self, tmp_path, T):
        rng = np.random.default_rng(T)
        res = [fake_result(rng.uniform(0, 2, (2, T)) * (rng.uniform(size=(2, T)) < 0.7), seed=s)
               for s in range(2)]
        path = tmp_path / "raw.csv"
        emit_csv(res, path)
        assert path.read_bytes() == per_row_csv(res)

    def test_two_digit_seed_and_agent_ids(self, tmp_path):
        rng = np.random.default_rng(3)
        res = [fake_result(rng.uniform(0, 2, (12, 120)), seed=s) for s in (9, 10, 57)]
        path = tmp_path / "raw.csv"
        emit_csv(res, path)
        assert path.read_bytes() == per_row_csv(res)


def test_freeze_phase_recorded_in_multi_runs():
    cfg = small_config(T=500, noise_std=0.5)
    res = run_one_seed(cfg, 0)
    assert res.freeze_phase is None or 1 <= res.freeze_phase <= res.n_phases
