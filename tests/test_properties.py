"""Property tests over small random configurations."""

import dataclasses
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from subgoss import harness, policies
from subgoss.cli import main
from subgoss.environment import generate_instance
from subgoss.harness import POLICIES, RunConfig
from subgoss.linalg import ExploreStats, LinUcbStats, ucb_candidates, ucb_scores
from subgoss.network import complete_graph
from subgoss.policies import (
    PolicyParams,
    RunResult,
    explore_plan,
    explore_slots,
    phase_length,
    run_genie,
    run_oful_baseline,
    run_single_agent_subgoss,
    run_subgoss_multi,
    sticky_sets,
    update_active_set,
)
from test_policies import reference_accept

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _run(policy, inst, n_agents, params, seed):
    def rng(i):
        return np.random.default_rng([seed, i])

    actions = rng(n_agents + 1)
    if policy == "genie":
        return run_genie(inst, params, rng(0), action_rng=actions, track_coverage=True)
    if policy == "oful":
        return run_oful_baseline(inst, params, rng(0), action_rng=actions)
    if n_agents == 1:
        return run_single_agent_subgoss(inst, params, rng(0), action_rng=actions)
    return run_subgoss_multi(
        inst, params, complete_graph(n_agents), [rng(i) for i in range(n_agents)],
        rng(n_agents), action_rng=actions,
    )


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(data=st.data())
def test_resampling_the_fixed_set_reproduces_fixed_mode(data):
    """A resample path whose draws are always the fixed set's random rows must leave
    every trajectory, recommendation and play as in fixed-action mode."""
    K = data.draw(st.integers(2, 6), label="K")
    n_agents = data.draw(st.sampled_from([n for n in range(1, K + 1) if K % n == 0]), label="N")
    m = data.draw(st.integers(1, 3), label="m")
    d = 2 * m + data.draw(st.integers(0, 3), label="d - 2m")
    T = data.draw(st.integers(1, 300), label="T")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    policy = data.draw(st.sampled_from(["phased", "genie", "oful"]), label="policy")
    inst = generate_instance(d, m, K, seed % K, 10, 1.0, 1.0, np.random.default_rng(seed))

    fixed = _run(policy, inst, n_agents, PolicyParams(T=T), seed)
    steps = []

    def fixed_rows(rng, out):
        # out is (W, n_random, d): the normals of W steps, here the fixed set's rows
        steps.append(out.shape[0])
        out[...] = inst.action_set[:out.shape[1]]
        return out

    def as_given(rows, out):
        # the fixed rows are unit vectors already: the sets take them unchanged
        out[...] = rows
        return out

    with (mock.patch.object(policies, "normal_rows", fixed_rows),
          mock.patch.object(policies, "normalized_rows", as_given)):
        params = PolicyParams(T=T, resample_actions_per_step=True)
        drawn = _run(policy, inst, n_agents, params, seed)
    assert sum(steps) == T
    assert np.array_equal(fixed.inst_regret, drawn.inst_regret)
    assert fixed.recommendations == drawn.recommendations
    assert np.array_equal(fixed.explored, drawn.explored)
    assert np.array_equal(fixed.played, drawn.played)
    assert fixed.coverage_ok == drawn.coverage_ok


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(data=st.data())
def test_batched_run_equals_each_seed_alone(data):
    """harness.run plays the seeds of a config together, one lane per (seed, agent),
    in batches of a drawn size; every field of every seed's result, the play record
    included, equals that seed run alone by run_one_seed. The play record keeps its
    invariants: each lane's explore plays open its phase, genie and oful never
    explore, every played row is in the action set, and with a fixed set each play
    is charged the regret of its row, bit for bit."""
    K = data.draw(st.integers(2, 6), label="K")
    policy = data.draw(st.sampled_from(POLICIES), label="policy")
    if policy == "subgoss_multi":
        N = data.draw(st.sampled_from([n for n in range(2, K + 1) if K % n == 0]), label="N")
    else:
        N = 1
    m = data.draw(st.integers(1, 3), label="m")
    config = RunConfig(
        d=2 * m + data.draw(st.integers(0, 3), label="d - 2m"), m=m, K=K, N=N, policy=policy,
        T=data.draw(st.integers(1, 300), label="T"),
        n_seeds=data.draw(st.integers(1, 4), label="n_seeds"),
        master_seed=data.draw(st.integers(0, 2**16), label="master_seed"),
        true_index=data.draw(st.integers(0, K - 1), label="true_index"),
        n_extra_actions=data.draw(st.integers(1, 10), label="n_extra_actions"),
        b=data.draw(st.floats(1.1, 4.0), label="b"),
        explore_budget_mode=data.draw(st.sampled_from(["theoretical", "experimental"])),
        track_coverage=data.draw(st.booleans(), label="track_coverage"),
        resample_actions_per_step=data.draw(st.booleans(), label="resample"),
    )
    lanes = data.draw(st.integers(1, 8), label="lanes per batch")
    with mock.patch.object(harness, "_BATCH_LANES", lanes):
        batched = harness.run(config)
        alone = [harness.run_one_seed(config, s) for s in range(config.n_seeds)]
    for s, (got, want) in enumerate(zip(batched, alone, strict=True)):
        for field in dataclasses.fields(RunResult):
            a, b = getattr(got, field.name), getattr(want, field.name)
            same = np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            assert same, field.name
        start = 0
        for j in range(1, want.n_phases + 1):
            end = start + phase_length(config.b, j)
            phase = want.explored[:, start:end]
            assert (phase[:, 1:] <= phase[:, :-1]).all(), f"phase {j} explores after exploiting"
            start = end
        assert policy.startswith("subgoss") or not want.explored.any()
        assert want.played.max() < config.extra_actions + K * m
        if not config.resample_actions_per_step:
            inst = harness._instance(config, s)
            values = inst.action_set @ inst.theta_star
            assert np.array_equal(want.inst_regret, values.max() - values[want.played])


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(data=st.data())
def test_lookahead_blocks_play_as_step_by_step(data):
    """The exploit steps that blocks score at once (`policies._LOOKAHEAD` > 1) give
    every field of every result of `harness.run` bit for bit as single steps do
    (`_LOOKAHEAD` = 1), over the policies and shapes whose kept statistics look
    ahead: multi, single and genie, m = 1 and 2, noiseless and noisy rewards, the
    default action set and a single random row."""
    policy = data.draw(st.sampled_from(["subgoss_multi", "subgoss_single", "genie"]),
                       label="policy")
    m = data.draw(st.sampled_from([1, 2]), label="m")
    K = data.draw(st.sampled_from([2, 4, 6]), label="K")
    config = RunConfig(
        d=2 * m + data.draw(st.integers(0, 3), label="d - 2m"), m=m, K=K,
        N=data.draw(st.sampled_from([2, K]), label="N") if policy == "subgoss_multi" else 1,
        policy=policy,
        T=data.draw(st.integers(1, 3000), label="T"),
        n_seeds=data.draw(st.integers(1, 3), label="n_seeds"),
        master_seed=data.draw(st.integers(0, 2**16), label="master_seed"),
        noise_std=data.draw(st.sampled_from([0.0, 1.0]), label="noise_std"),
        n_extra_actions=data.draw(st.sampled_from([None, 1]), label="n_extra_actions"),
    )
    blocks = harness.run(config)
    with mock.patch.object(policies, "_LOOKAHEAD", 1):
        steps = harness.run(config)
    for got, want in zip(blocks, steps, strict=True):
        for field in dataclasses.fields(RunResult):
            a, b = getattr(got, field.name), getattr(want, field.name)
            same = np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            assert same, field.name


@pytest.mark.parametrize("policy", ["genie", "subgoss_single"])
def test_lookahead_blocks_record_most_exploit_steps(policy):
    """On the Fig-1 shape the kept statistics take most exploit steps as blocks:
    `add_play_coords` runs on fewer than a quarter of the steps, and records each
    exploit step once (the two seeds' lanes share one explore schedule)."""
    config = RunConfig(d=24, m=2, K=12, N=1, policy=policy, T=4000, n_seeds=2, master_seed=6)
    recorded = []
    add = LinUcbStats.add_play_coords

    def count(stats, x, reward):
        recorded.append(len(reward) if np.ndim(reward) > 1 else 1)
        add(stats, x, reward)

    with mock.patch.object(LinUcbStats, "add_play_coords", count):
        results = harness.run(config)
    exploit_steps = int(sum((~r.explored).sum() for r in results)) // config.n_seeds
    assert sum(recorded) == exploit_steps
    assert len(recorded) < config.T / 4


@pytest.mark.parametrize("policy,m,N", [
    ("genie", 2, 1), ("subgoss_single", 1, 1), ("subgoss_single", 2, 1), ("subgoss_multi", 2, 4),
])
def test_seeds_run_alike_alone_and_in_batches_once_blocks_form(policy, m, N):
    """At a horizon where blocks form (46% to 98% of the exploit steps of the
    batches here), every field of each seed's result is the same run alone, in
    batches of three seeds and in a run of fewer seeds. A block's length depends
    on the batch, and J plays recorded at once round otherwise than J single
    plays, so only a near-tie could tell them apart; these configs have none."""
    config = RunConfig(d=12 * m, m=m, K=12, N=N, policy=policy, T=4000, n_seeds=4,
                       master_seed=9)
    alone = [harness.run_one_seed(config, s) for s in range(config.n_seeds)]
    with mock.patch.object(harness, "_BATCH_LANES", 3 * N):
        batches = harness.run(config)
    fewer = harness.run(dataclasses.replace(config, n_seeds=3))
    for got in (batches, fewer):
        for mine, want in zip(got, alone):
            for field in dataclasses.fields(RunResult):
                a, b = getattr(mine, field.name), getattr(want, field.name)
                same = np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                assert same, field.name


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(
    dim=st.integers(1, 6),
    lam=st.floats(0.5, 2.0),
    n_plays=st.integers(0, 200),
    scale=st.floats(0.1, 3.0),
    seed=st.integers(0, 2**16),
)
def test_sherman_morrison_inverse_matches_solve(dim, lam, n_plays, scale, seed):
    """The rank-1-updated inverse, the ridge estimate and the optimistic scores
    agree with np.linalg.inv/solve on the ridge system built from the plays, to 1e-9
    relative."""
    r = np.random.default_rng(seed)
    plays = scale * r.standard_normal((n_plays, dim))
    rewards = r.standard_normal(n_plays)
    stats = LinUcbStats(dim, lam)
    for x, rew in zip(plays, rewards):
        stats.add_play_coords(x, float(rew))
    gram = lam * np.eye(dim) + plays.T @ plays
    actions = scale * r.standard_normal((dim, 3 * dim + 1))

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    th = np.linalg.solve(gram, plays.T @ rewards)
    quad = np.einsum("ij,ij->j", actions, np.linalg.solve(gram, actions))
    assert stats.count == n_plays
    assert close(stats.inv, np.linalg.inv(gram))
    assert close(stats.theta_hat(), th)
    assert close(ucb_scores(stats, actions, 1.3), th @ actions + 1.3 * np.sqrt(quad))


def _columns(draw, r, m, n):
    """An (m, n) block of one of the shapes that make ties and flat hulls: random;
    mixed with zero, duplicate, collinear and one-ulp-apart columns; an axis-aligned
    instance projected on one of its subspaces, where the other subspaces' basis
    columns project to exactly 0; or, for m = 1, all columns equal."""
    kind = draw(st.sampled_from(["random", "mixed", "axis", "equal"]), label="kind")
    scale = draw(st.sampled_from([1e-3, 1.0, 10.0]), label="scale")
    if kind == "equal":
        return np.full((m, n), scale * r.standard_normal()) if m == 1 else np.zeros((m, n))
    if kind == "axis":
        K = draw(st.integers(1, 6), label="K")
        n_random = draw(st.integers(0, 4), label="n_random")
        actions = np.vstack([r.standard_normal((n_random, K * m)), np.eye(K * m)])
        k = draw(st.integers(0, K - 1), label="subspace")
        return scale * actions[:, k * m:(k + 1) * m].T
    x = scale * r.standard_normal((m, n))
    if kind == "mixed":
        for j in range(1, n):
            a, b = r.integers(0, j, size=2)
            how = r.integers(0, 5)
            if how == 1:
                x[:, j] = 0.0
            elif how == 2:
                x[:, j] = x[:, a]
            elif how == 3:  # on the line through two earlier columns
                w = r.choice([-0.5, 0.0, 0.25, 0.5, 1.0, 1.5])
                x[:, j] = w * x[:, a] + (1 - w) * x[:, b]
            elif how == 4:  # a rounding step away from an earlier column
                x[:, j] = np.nextafter(x[:, a], r.choice([-np.inf, np.inf]))
    return x


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(data=st.data())
def test_candidates_never_lose_the_argmax(data):
    """Scoring only ucb_candidates' columns and mapping the argmax back through them
    picks the column that scoring every column picks, for any positive radius and any
    ridge statistics, on blocks with ties, zero columns, collinear columns and flat
    hulls. The candidates also attain the largest projection on every direction."""
    m = data.draw(st.integers(1, 2), label="m")
    lanes = data.draw(st.integers(1, 4), label="lanes")
    r = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    blocks = [_columns(data.draw, r, m, data.draw(st.integers(1, 40), label="n"))
              for _ in range(lanes)]
    n = min(b.shape[1] for b in blocks)
    coords = np.stack([b[:, :n] for b in blocks])
    # random SPD V^-1 and theta_hat from random plays; none leaves theta_hat at 0
    stats = LinUcbStats(m, data.draw(st.floats(0.1, 10.0), label="lam"), (lanes,))
    for _ in range(data.draw(st.integers(0, 6), label="plays")):
        stats.add_play_coords(r.standard_normal((lanes, m)), 3 * r.standard_normal(lanes))
    beta = np.array(data.draw(st.lists(st.floats(1e-3, 10.0), min_size=lanes,
                                       max_size=lanes), label="beta"))

    cand = ucb_candidates(coords)
    assert cand.shape[1] >= 2
    for row in cand:  # ascending, then padded by its first entry
        kept = np.unique(row)
        assert np.array_equal(row[:len(kept)], kept) and (row[len(kept):] == row[0]).all()
    pick = ucb_scores(stats, np.take_along_axis(coords, cand[:, None, :], axis=2), beta)
    got = cand[np.arange(lanes), pick.argmax(axis=1)]
    assert np.array_equal(got, ucb_scores(stats, coords, beta).argmax(axis=1))
    # the largest projection on each direction is attained by a candidate
    along = np.einsum("ui,lin->lun", r.standard_normal((64, m)), coords)
    assert np.array_equal(np.take_along_axis(along, cand[:, None, :], axis=2).max(axis=2),
                          along.max(axis=2))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(data=st.data())
def test_kept_scores_pick_as_the_from_scratch_form(data):
    """Statistics kept over a fixed block pick the column that `ucb_scores` picks from
    the same plays, at every step, on random blocks, plays and radii."""
    m = data.draw(st.sampled_from([1, 2, 3, 6, 24]), label="m")
    n = data.draw(st.integers(2, 40), label="n")
    lanes = data.draw(st.integers(1, 4), label="lanes")
    lam = data.draw(st.floats(0.1, 10.0), label="lam")
    r = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    X = data.draw(st.sampled_from([1e-2, 1.0, 10.0]), label="scale") * r.standard_normal(
        (lanes, m, n))
    theta = r.standard_normal((lanes, m))
    kept, oracle = LinUcbStats(m, lam, (lanes,), X), LinUcbStats(m, lam, (lanes,))
    at = np.arange(lanes)
    for _ in range(data.draw(st.integers(1, 60), label="plays")):
        beta = r.uniform(0.0, 5.0, lanes)
        pick = kept.scores(beta).argmax(axis=1)
        assert np.array_equal(pick, ucb_scores(oracle, X, beta).argmax(axis=1))
        # a random column now and then, so that the plays spread over the block
        pick = np.where(r.random(lanes) < 0.3, r.integers(0, n, lanes), pick)
        x = X[at, :, pick]
        reward = (x * theta).sum(axis=1) + r.standard_normal(lanes)
        kept.add_play_coords(pick, reward)
        oracle.add_play_coords(x, reward)


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
)


@st.composite
def _small_config(draw):
    """A valid small config: d <= 8, T <= 50, at most 3 seeds."""
    m = draw(st.integers(1, 4))
    K = draw(st.integers(2, 6))
    policy = draw(st.sampled_from(POLICIES))
    if policy == "subgoss_multi":
        N = draw(st.sampled_from([n for n in range(2, K + 1) if K % n == 0]))
    else:
        N = draw(st.integers(1, 3))
    config = {
        "d": draw(st.integers(2 * m, 8)), "m": m, "K": K, "N": N, "policy": policy,
        "T": draw(st.integers(1, 50)), "n_seeds": draw(st.integers(1, 3)),
        "master_seed": draw(st.integers(0, 2**32)), "true_index": draw(st.integers(0, K - 1)),
        "b": draw(st.floats(1.05, 4.0)), "lambda": draw(st.floats(0.5, 2.0)),
        "noise_std": draw(st.floats(0.0, 2.0)), "s_bound": draw(st.floats(0.1, 2.0)),
        "n_extra_actions": draw(st.one_of(st.none(), st.integers(1, 10))),
        "explore_budget_mode": draw(st.sampled_from(["theoretical", "experimental"])),
        "track_coverage": draw(st.booleans()),
        "resample_actions_per_step": draw(st.booleans()),
        "delta": draw(st.one_of(st.none(), st.floats(0.01, 0.99))),
    }
    return config


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(data=st.data())
def test_any_json_config_exits_0_or_2(data):
    """run and validate end with exit 0 on a valid config and 2 on a broken one, never
    with a traceback or exit 1. A broken config has one or two fields replaced by
    junk, removed, or joined by an unknown key, or it is other JSON, or cut short.
    bounds, given any gap and spread moment, also ends with exit 0 or 2, and an
    exit 2 leaves no output file."""
    config = data.draw(_small_config(), label="config")
    how = data.draw(st.sampled_from(["valid", "broken fields", "other JSON", "cut short"]))
    if how == "broken fields":
        keys = st.sampled_from([*config, "gossip", "bogus"])
        for key in data.draw(st.lists(keys, min_size=1, max_size=2), label="keys"):
            if key in config and data.draw(st.booleans(), label=f"drop {key}"):
                del config[key]
            else:
                config[key] = data.draw(_JUNK, label=key)
    text = json.dumps(data.draw(_JUNK, label="document") if how == "other JSON" else config)
    if how == "cut short":
        text = text[: len(text) // 2]
    # any float, often one in the domain
    gap = data.draw(st.one_of(st.floats(), st.floats(0.01, 1.0)), label="gap")
    moment = data.draw(st.one_of(st.floats(), st.floats(1.0, 1e6)), label="spread moment")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(text)
        validated = main(["validate", "--config", str(path)])
        ran = main(["run", "--config", str(path), "--out", str(Path(tmp) / "out.csv")])
        bounds_out = Path(tmp) / "bounds.csv"
        bounded = main(["bounds", "--config", str(path), "--out", str(bounds_out),
                        f"--gap={gap!r}", f"--spread-moment={moment!r}"])
        wrote = bounds_out.exists()
    assert validated in (0, 2)
    assert ran == validated
    assert how != "valid" or ran == 0
    assert bounded in (0, 2)
    assert validated == 0 or bounded == 2
    assert wrote == (bounded == 0)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(K=st.integers(1, 12), data=st.data())
def test_active_set_stays_within_its_cap(K, data):
    """Under any sequence of accepted recommendations and explore norms, a batch of
    lanes updated together equals the scalar rule applied lane by lane, the sticky
    set stays inside the active set and the active set holds at most K/N + 2 ids."""
    N = data.draw(st.sampled_from([n for n in range(1, K + 1) if K % n == 0]), label="N")
    agents = data.draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=6), label="agents")
    sticky = sticky_sets(K, N)[agents]
    active = sticky.copy()
    sticky_ids = [set(np.flatnonzero(row).tolist()) for row in sticky]
    want = [set(ids) for ids in sticky_ids]
    # few distinct values, so that ties are common; an id left out is at -inf
    norm = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 10.0))
    for step in range(data.draw(st.integers(0, 30), label="steps")):
        norms = np.full(active.shape, -np.inf)
        lane_norms = [data.draw(st.dictionaries(st.integers(0, K - 1), norm), label=f"norms {step}")
                      for _ in agents]
        for lane, values in enumerate(lane_norms):
            for k, v in values.items():
                norms[lane, k] = v
        pulled = data.draw(st.lists(st.integers(0, K - 1), min_size=len(agents),
                                    max_size=len(agents)), label=f"recommended {step}")
        update_active_set(active, sticky, norms, np.array(pulled))
        for lane, ids in enumerate(sticky_ids):
            want[lane] = reference_accept(want[lane], ids, lane_norms[lane], pulled[lane])
            assert set(np.flatnonzero(active[lane]).tolist()) == want[lane]
        assert not (sticky & ~active).any()
        assert (active.sum(axis=1) <= K // N + 2).all()


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(data=st.data())
def test_explore_table_replays_next_column(data):
    """The phase's explore table names, slot by slot, the subspace of the lane's
    round-robin over its active ids and the column `ExploreStats.next_column`
    picks after the plays before it, from counts left by earlier phases'
    least-played plays; phases too short for the budget included."""
    K = data.draw(st.integers(1, 6), label="K")
    m = data.draw(st.integers(1, 4), label="m")
    lanes = data.draw(st.integers(1, 4), label="lanes")
    active = np.array(data.draw(st.lists(
        st.lists(st.booleans(), min_size=K, max_size=K).filter(any),
        min_size=lanes, max_size=lanes), label="active"))
    # earlier phases' plays leave each subspace's counts a round-robin prefix
    totals = np.array(data.draw(st.lists(st.integers(0, 20), min_size=lanes * K,
                                         max_size=lanes * K), label="totals")).reshape(lanes, K)
    stats = ExploreStats((lanes, K, m))
    stats.count[:] = totals[..., None] // m + (np.arange(m) < totals[..., None] % m)
    budget = data.draw(st.integers(1, 3 * m), label="budget")
    length = data.draw(st.integers(1, budget * K + 2), label="length")
    n_exp = explore_plan(active, budget, length)
    n_active = active.sum(axis=1)
    order = np.array([np.resize(np.flatnonzero(row), n_active.max()) for row in active])
    ids, cols = explore_slots(order, n_active, stats.count.copy(), np.arange(n_exp.max()))
    for lane in range(lanes):
        held = np.flatnonzero(active[lane])
        for s in range(n_exp[lane]):
            k = held[s % len(held)]
            col = stats[lane, k].next_column()
            assert (ids[lane, s], cols[lane, s]) == (k, col), (lane, s)
            stats[lane, k].add_play(col, 0.0)
