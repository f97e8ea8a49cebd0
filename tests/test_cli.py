"""Command-line interface: exit codes, overrides, and emitted files."""

import json
import math

import pytest

from subgoss import bounds as bounds_mod
from subgoss.cli import main
from subgoss.harness import instance_gap, load_config, parse_aggregate_csv


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
    "overrides, env, message",
    [
        ({"T": "100"}, None, "T must be an integer"),
        ({"T": 0}, None, "T must be an integer >= 1"),
        ({"n_seeds": 1.5}, None, "n_seeds must be an integer"),
        ({"b": 1.0}, None, "b must be a number > 1"),
        ({"lambda": 0}, None, "lam must be a number > 0"),
        ({}, "abc", "SUBGOSS_WORKERS must be an integer"),
    ],
    ids=["T-string", "T-zero", "n_seeds-float", "b-one", "lambda-zero", "workers-abc"],
)
def test_malformed_input_is_exit_2(tmp_path, capsys, monkeypatch, overrides, env, message):
    if env is not None:
        monkeypatch.setenv("SUBGOSS_WORKERS", env)
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not (tmp_path / "x.csv").exists()


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
        agg = parse_aggregate_csv(out)
        assert len(agg.mean_curve) == 80
        assert agg.mean_curve[-1] >= agg.mean_curve[0]

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
        assert len(parse_aggregate_csv(out).mean_curve) == 25

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


class TestSpread:
    def test_complete_graph_stats(self, capsys):
        assert main(["spread", "--n-agents", "4", "--trials", "200",
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "agents: 4" in out
        assert "mean_tau:" in out
        mean_tau = float(out.split("mean_tau: ")[1].split()[0])
        assert 1.0 <= mean_tau <= 10.0

    def test_needs_exactly_one_source(self, capsys):
        assert main(["spread"]) == 2
        assert main(["spread", "--n-agents", "4", "--gossip", "g.json"]) == 2

    def test_matrix_file(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[0.0, 1.0], [1.0, 0.0]]))
        assert main(["spread", "--gossip", str(g), "--trials", "50"]) == 0
        assert "agents: 2" in capsys.readouterr().out
