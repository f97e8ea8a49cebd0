"""The benchmark's per-layer tracer still finds and counts the functions it wraps."""

import importlib
import sys
import threading
from pathlib import Path

import numpy as np

from subgoss import policies
from subgoss.environment import generate_instance
from subgoss.network import complete_graph

BENCH = Path(__file__).resolve().parents[1] / "bench"


def resolve(modname, attr):
    obj = importlib.import_module(modname)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_targets_resolve_and_count_a_multi_agent_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    tracing = importlib.import_module("tracing")
    for _, modname, attr in tracing.TARGETS:
        assert modname.split(".")[0] == "subgoss"
        assert callable(resolve(modname, attr)), f"{modname}.{attr}"

    inst = generate_instance(6, 1, 4, 0, 10, 1.0, 1.0, np.random.default_rng(0))
    rngs = [np.random.default_rng(i) for i in range(3)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = policies.run_subgoss_multi(
            inst, policies.PolicyParams(T=300), complete_graph(2), rngs[:2], rngs[2]
        )
    finally:
        tracer.uninstall()
    assert res.inst_regret.shape == (2, 300)
    for name in (
        "policies.run_subgoss_multi",
        "policies.explore_plan",
        "policies.end_explore_update",
        "policies.gossip_exchange",
        "policies.update_active_set",
        "network.sample_neighbor",
        "linalg.ExploreStats.add_play",
        "linalg.LinUcbStats.add_play_coords",
    ):
        assert tracer.stat(name)[0] > 0, name
    assert not hasattr(policies.explore_plan, "__wrapped__")


def test_the_resample_producer_calls_nothing_traced(monkeypatch):
    # the tracer's span stack belongs to the main thread: every traced call of a
    # resampled run, whose sets a helper thread draws, is made there
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    inst = generate_instance(6, 1, 4, 0, 10, 1.0, 1.0, np.random.default_rng(0))
    rngs = [np.random.default_rng(i) for i in range(4)]
    tracer = tracing.Tracer()
    threads = set()
    enter = tracer._enter

    def recording_enter():
        threads.add(threading.current_thread().name)
        return enter()

    monkeypatch.setattr(tracer, "_enter", recording_enter)
    tracer.install()
    try:
        policies.run_subgoss_multi(
            inst, policies.PolicyParams(T=300, resample_actions_per_step=True),
            complete_graph(2), rngs[:2], rngs[2], action_rng=rngs[3],
        )
    finally:
        tracer.uninstall()
    assert threads == {threading.main_thread().name}
    assert tracer.stat("policies.run_subgoss_multi")[0] == 1
    # the engine draws through the producer, not through resample_actions
    assert tracer.stat("environment.resample_actions")[0] == 0
