"""Command-line interface: exit codes, overrides, and emitted files."""

import json
import math
import time
import warnings

import numpy as np
import pytest

from subgoss import bounds as bounds_mod
from subgoss import cli, policies
from subgoss.cli import main
from subgoss.harness import instance_gap, load_config

from conftest import producer_threads


def write_config(tmp_path, **overrides):
    data = {"d": 6, "m": 1, "K": 4, "N": 2, "T": 80,
            "policy": "subgoss_multi", "n_seeds": 2, "master_seed": 1}
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_divisibility_error_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, K=12, N=5)
        assert main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "K=12" in err and "N=5" in err

    def test_missing_file_is_exit_2(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_gossip_matrix(self, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[0.9, 0.0], [1.0, 0.0]]))
        cfg = write_config(tmp_path, gossip=str(g))
        assert main(["validate", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"T": "100"}, "T must be an integer"),
        ({"T": 0}, "T must be an integer >= 1"),
        ({"n_seeds": 1.5}, "n_seeds must be an integer"),
        ({"b": 1.0}, "b must be a number > 1"),
        ({"lambda": 0}, "lam must be a number > 0"),
        ({"lambda": 1e-320}, "lam must be a number > 0 with a finite inverse"),
        ({"log_plays": True}, "unknown config keys"),
        ({"d": 3, "m": 2, "K": 2}, "2m <= d"),
        ({"delta": "abc"}, "delta must be null or a number in (0, 1)"),
        ({"delta": 1.5}, "delta must be null or a number in (0, 1)"),
        ({"delta_mode": "fixed", "delta": 0.05}, "unknown config keys"),
        ({"noise_std": 1e308}, "noise_std=1e+308 draws noise past the float range"),
    ],
    ids=["T-string", "T-zero", "n_seeds-float", "b-one", "lambda-zero", "lambda-inverse-overflows",
         "log_plays-removed", "2m-above-d", "delta-string", "delta-above-one",
         "delta_mode-removed", "noise-overflows"],
)
def test_malformed_input_is_exit_2(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "content",
    ["[[0, 1], [1]]", '"abc"', '{"a": 1}', "[[0, 1], [1, 0]", "[[NaN, 1], [1, 0]]"],
    ids=["jagged", "string", "object", "truncated", "nan"],
)
def test_malformed_gossip_file_is_exit_2(tmp_path, capsys, content):
    g = tmp_path / "g.json"
    g.write_text(content)
    cfg = write_config(tmp_path, gossip=str(g))
    assert main(["validate", "--config", str(cfg)]) == 2
    assert main(["spread", "--gossip", str(g), "--trials", "10"]) == 2
    assert capsys.readouterr().err.count("config error: ") == 2


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_spread_needs_a_trial(capsys, trials):
    assert main(["spread", "--n-agents", "4", "--trials", trials]) == 2
    assert "trials >= 1" in capsys.readouterr().err


class TestArgParsing:
    def test_unknown_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", "x.csv", "--frobnicate"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_is_success(self, capsys):
        assert main(["--help"]) == 0


class TestRun:
    def test_emits_aggregate_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        mean_curve = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
        assert len(mean_curve) == 80
        assert mean_curve[-1] >= mean_curve[0]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, policy="genie", N=1, T=50)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", str(cfg), "--out", str(a), "--seed", "9"]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(b), "--seed", "9"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, policy="genie", N=1, T=50)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", str(cfg), "--out", str(a), "--seed", "1"])
        main(["run", "--config", str(cfg), "--out", str(b), "--seed", "2"])
        assert a.read_bytes() != b.read_bytes()

    def test_overrides_applied(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--policy", "oful", "--T", "25", "--n-seeds", "3"]) == 0
        assert len(np.loadtxt(out, delimiter=",", skiprows=1)) == 25

    def test_raw_out(self, tmp_path):
        cfg = write_config(tmp_path, policy="genie", N=1, T=10)
        out, raw = tmp_path / "out.csv", tmp_path / "raw.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--raw-out", str(raw)]) == 0
        lines = raw.read_text().splitlines()
        assert lines[0] == "t,seed,agent,inst_regret,cum_regret"
        assert len(lines) == 1 + 2 * 10

    def test_single_seed_emits_raw_format(self, tmp_path):
        cfg = write_config(tmp_path, policy="genie", N=1, T=10, n_seeds=1)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "t,seed,agent,inst_regret,cum_regret"


class TestBounds:
    def test_last_row_matches_direct_evaluation(self, tmp_path):
        cfg_path = write_config(tmp_path, T=200)
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--config", str(cfg_path), "--out", str(out),
                     "--gap", "0.5", "--spread-moment", "300"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,projected_linucb,communication,exploration,total"
        assert len(lines) == 1 + 200
        t, proj, comm, expl, total = lines[-1].split(",")
        assert int(t) == 200
        config = load_config(cfg_path)
        want = bounds_mod.theorem1_bound(
            bounds_mod.BoundInputs(
                T=200, d=config.d, m=config.m, K=config.K, N=config.N,
                b=config.b, lam=config.lam, delta=1.0 / 200, S=config.s_bound,
                Delta=0.5, spread_moment=300.0,
            ),
            bounds_mod.tau0(config.b, config.m, config.K, config.N),
        )
        assert math.isclose(float(total), want.total, rel_tol=1e-11)
        assert math.isclose(float(proj), want.projected_linucb, rel_tol=1e-11)
        assert math.isclose(float(comm), want.communication, rel_tol=1e-11)
        assert math.isclose(float(expl), want.exploration, rel_tol=1e-11)

    def test_default_gap_comes_from_seed0_instance(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, T=5)
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--config", str(cfg_path), "--out", str(out)]) == 0
        gap = instance_gap(load_config(cfg_path))
        assert f"gap={gap:.6g}" in capsys.readouterr().out

    def test_single_agent_variant(self, tmp_path):
        cfg_path = write_config(tmp_path, T=20, policy="subgoss_single", N=1)
        out = tmp_path / "sa.csv"
        assert main(["bounds", "--config", str(cfg_path), "--out", str(out),
                     "--gap", "0.5", "--single-agent"]) == 0
        total = float(out.read_text().splitlines()[-1].split(",")[-1])
        want = bounds_mod.single_agent_bound(
            bounds_mod.BoundInputs(
                T=20, d=6, m=1, K=4, N=1, b=2.0, lam=1.0,
                delta=1.0 / 20, S=1.0, Delta=0.5,
            )
        )
        assert math.isclose(total, want.total, rel_tol=1e-11)


def reference_bounds_csv(config, gap, moment, single_agent):
    """The `bounds` CSV row by row, each term by its closed form in full at every t,
    or the message of the first row that leaves the float range."""
    b, m, K, N, S, lam = config.b, config.m, config.K, max(config.N, 1), config.s_bound, config.lam
    delta = config.policy_params().delta_value()
    tau = bounds_mod.tau0(config.b, config.m, config.K, config.N)
    lines = ["t,projected_linucb,communication,exploration,total\n"]
    for t in range(1, config.T + 1):
        bT = bounds_mod.beta(delta, m, lam, t - 1, S)
        proj = math.sqrt(8.0 * m * t * bT * bT * math.log1p(t / (m * lam))) + 2.0 * S
        h = b * (1.0 + (t - 1) * (b - 1.0))
        tail = math.log(h) / math.log(b) + (math.sqrt(h) - 1.0) / (math.sqrt(b) - 1.0)
        if single_agent:
            comm = 2.0 * S * bounds_mod.g_of_b(b) * (
                math.ceil(b * (16.0 * m * K) ** 2) + (8.0 * b**2 / math.log(b)) * (m**2 / gap**2)
            )
            explore = 16.0 * m * K * S * tail
        else:
            comm = 2.0 * S * bounds_mod.g_of_b(b) * (
                math.ceil(b ** (2 * tau))
                + (48.0 * b**3 / math.log(b)) * (m**4 * N / gap**6)
                + b * moment
            )
            per = K / N + 2.0
            explore = 16.0 * m * S * per * tail
        terms = (proj, comm, explore, proj + comm + explore)
        if not all(map(math.isfinite, terms)):
            return f"bound leaves the float range at t={t}: {terms}"
        lines.append("{},{:.12e},{:.12e},{:.12e},{:.12e}\n".format(t, *terms))
    return "".join(lines)


@pytest.mark.parametrize("single_agent", [False, True], ids=["theorem1", "single"])
@pytest.mark.parametrize("N", [1, 2, 4])
@pytest.mark.parametrize("b", [1.3, 2.0, 3.0])
def test_bounds_csv_has_the_bytes_of_the_per_row_reference(tmp_path, b, N, single_agent):
    policy = "subgoss_multi" if N > 1 else "subgoss_single"
    flags = [] if single_agent else ["--spread-moment", "123.4"]
    for T, more in [(1, {}), (2000, {}), (20_000 if b == 2.0 else 3000, {}),
                    (2000, dict(d=24, m=2, K=12)), (500, {"m": 3, "s_bound": 0.7, "lambda": 2.5})]:
        cfg = write_config(tmp_path, T=T, b=b, N=N, policy=policy, **more)
        config = load_config(cfg)
        out = tmp_path / "bounds.csv"
        argv = ["bounds", "--config", str(cfg), "--out", str(out), *flags]
        assert main([*argv, *(["--single-agent"] if single_agent else [])]) == 0
        gap = instance_gap(config)
        want = reference_bounds_csv(config, gap, 123.4 if flags else 1.0, single_agent)
        assert out.read_bytes() == want.encode()


@pytest.mark.parametrize("single_agent", [False, True], ids=["theorem1", "single"])
@pytest.mark.parametrize("s_bound", [1e152, 1e153, 3e153])
def test_bounds_out_of_float_range_names_the_first_row(tmp_path, capsys, s_bound,
                                                       single_agent):
    # beta_t grows with S, and the projected term overflows at a t that grows as S falls
    cfg = write_config(tmp_path, T=3000, s_bound=s_bound)
    out = tmp_path / "bounds.csv"
    flags = ["--gap", "0.3", *(["--single-agent"] if single_agent else [])]
    assert main(["bounds", "--config", str(cfg), "--out", str(out), *flags]) == 2
    want = reference_bounds_csv(load_config(cfg), 0.3, 1.0, single_agent)
    assert want.startswith("bound leaves the float range at t=")
    assert capsys.readouterr().err == f"config error: {want}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, flags, message",
    [
        ({}, ["--gap", "nan"], "gap must be positive and finite"),
        ({}, ["--gap", "inf"], "gap must be positive and finite"),
        ({}, ["--gap", "-0.3"], "gap must be positive and finite"),
        ({}, ["--gap", "0.3", "--spread-moment", "-4"], "spread moment"),
        ({}, ["--gap", "0.3", "--spread-moment", "0.5"], "spread moment"),
        ({}, ["--gap", "0.3", "--spread-moment", "nan"], "spread moment"),
        ({}, ["--gap", "0.3", "--spread-moment", "inf"], "spread moment"),
        ({}, ["--gap", "1e300"], "float range"),
        ({}, ["--gap", "0.3", "--spread-moment", "1e308"], "float range"),
        ({"lambda": 0.5}, ["--gap", "0.3"], "lambda >= 1"),
        ({"s_bound": 1e-11}, [], "s_bound=1e-11"),
    ],
    ids=["gap-nan", "gap-inf", "gap-negative", "moment-negative", "moment-below-one",
         "moment-nan", "moment-inf", "gap-overflow", "moment-overflow", "lambda-half",
         "zero-gap-from-s_bound"],
)
def test_bad_bound_input_is_exit_2_and_leaves_no_file(tmp_path, capsys, overrides, flags,
                                                       message):
    cfg = write_config(tmp_path, T=20, **overrides)
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--config", str(cfg), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


def test_bounds_with_b_near_one_is_exit_2_and_quick(tmp_path, capsys):
    # at b = 1 + 1e-9 the full tau0 scan would take about 1.4e9 steps, several
    # minutes; the config is rejected before the scan starts
    cfg = write_config(tmp_path, T=20, b=1 + 1e-9)
    out = tmp_path / "bounds.csv"
    start = time.perf_counter()
    assert main(["bounds", "--config", str(cfg), "--out", str(out), "--gap", "0.3"]) == 2
    assert time.perf_counter() - start < 5
    assert "b=1.000000001 is too close to 1" in capsys.readouterr().err
    assert not out.exists()


def test_config_too_large_to_allocate_is_exit_2(tmp_path, capsys, monkeypatch):
    # the run raises as numpy does on an array past the memory, without allocating it
    def huge(config):
        raise MemoryError("Unable to allocate 14.6 TiB for an array with shape "
                          "(1000000000001, 2) and data type float64")

    monkeypatch.setattr(cli, "run", huge)
    cfg = write_config(tmp_path, T=10**12)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: the run does not fit in memory: Unable to allocate")
    assert err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("policy", ["subgoss_multi", "oful"])
def test_a_draw_past_the_memory_on_the_producer_thread_is_exit_2(tmp_path, capsys,
                                                               monkeypatch, policy):
    # resampled sets are drawn on a helper thread; its MemoryError reaches the
    # command as one, and the thread does not outlive the command
    def huge(rng, out):
        raise MemoryError("Unable to allocate 9.2 GiB for the action sets")

    monkeypatch.setattr(policies, "normal_rows", huge)
    cfg = write_config(tmp_path, policy=policy, N=2 if policy == "subgoss_multi" else 1,
                       resample_actions_per_step=True)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: the run does not fit in memory: "
                   "Unable to allocate 9.2 GiB for the action sets\n")
    assert not (tmp_path / "x.csv").exists()
    assert not producer_threads()


def test_spread_needs_a_nonnegative_seed(capsys):
    assert main(["spread", "--n-agents", "4", "--seed", "-1"]) == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("policy", ["subgoss_multi", "subgoss_single", "genie", "oful"])
@pytest.mark.parametrize("noise_std", [1e308, 1e200])
def test_noise_past_the_float_range_warns_nothing(tmp_path, capsys, policy, noise_std):
    """A noise level whose draws would overflow the statistics is refused before any
    arithmetic on them: exit 2 with one line, and no RuntimeWarning on the way."""
    cfg = write_config(tmp_path, d=24, m=2, K=12, N=4, T=50, noise_std=noise_std)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv"),
                     "--policy", policy])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: noise_std=") and err.count("\n") == 1


def test_spread_b_past_the_float_range_is_exit_2(capsys):
    assert main(["spread", "--n-agents", "4", "--b", "1e308"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: b**(2*tau) overflowed") and err.count("\n") == 1


@pytest.mark.parametrize("b", ["nan", "inf"])
def test_spread_needs_a_finite_b(capsys, b):
    assert main(["spread", "--n-agents", "4", "--trials", "10", "--b", b]) == 2
    assert "need 1 < b < inf" in capsys.readouterr().err


class TestSpread:
    def test_complete_graph_stats(self, capsys):
        assert main(["spread", "--n-agents", "4", "--trials", "200",
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "agents: 4" in out
        assert "mean_tau:" in out
        mean_tau = float(out.split("mean_tau: ")[1].split()[0])
        assert 1.0 <= mean_tau <= 10.0

    def test_one_trial_has_no_standard_error(self, capsys):
        assert main(["spread", "--n-agents", "4", "--trials", "1", "--b", "2"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("spread_moment_b2: ")
        assert line.endswith(" +- nan")

    def test_needs_exactly_one_source(self, capsys):
        assert main(["spread"]) == 2
        assert main(["spread", "--n-agents", "4", "--gossip", "g.json"]) == 2

    def test_matrix_file(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[0.0, 1.0], [1.0, 0.0]]))
        assert main(["spread", "--gossip", str(g), "--trials", "50"]) == 0
        assert "agents: 2" in capsys.readouterr().out
