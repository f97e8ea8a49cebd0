"""Per-layer tracing from outside the package.

`Tracer` replaces public functions of `subgoss` by timing wrappers, found by
module attribute: a function is swapped in every `subgoss` module that holds
it, wherever the caller imported the name, and a method is swapped on its
class. Each call becomes a span (name, start, end, parent span) kept in memory
and written out by `save`; per-name call counts, busy seconds and self seconds
(busy minus the time covered by wrapped children) are summed as spans close.
"""

from __future__ import annotations

import importlib
import os
import sys
from array import array
from time import perf_counter

import numpy as np

# (layer, module, attribute); a dotted attribute names a method on a class
TARGETS = (
    ("environment", "subgoss.environment", "generate_instance"),
    ("environment", "subgoss.environment", "resample_actions"),
    ("linalg", "subgoss.linalg", "ExploreStats.add_play"),
    ("linalg", "subgoss.linalg", "LinUcbStats.add_play_coords"),
    ("bounds", "subgoss.bounds", "beta"),
    ("bounds", "subgoss.bounds", "theorem1_bound"),
    ("network", "subgoss.network", "sample_neighbor"),
    ("network", "subgoss.network", "estimate_spread_moment"),
    ("network", "subgoss.network", "simulate_rumor_spread"),
    ("policies", "subgoss.policies", "explore_plan"),
    ("policies", "subgoss.policies", "end_explore_update"),
    ("policies", "subgoss.policies", "gossip_exchange"),
    ("policies", "subgoss.policies", "update_active_set"),
    ("policies", "subgoss.policies", "run_subgoss_multi"),
    ("policies", "subgoss.policies", "run_single_agent_subgoss"),
    ("policies", "subgoss.policies", "run_genie"),
    ("policies", "subgoss.policies", "run_oful_baseline"),
    ("harness", "subgoss.harness", "run_one_seed"),
    ("harness", "subgoss.harness", "aggregate"),
    ("harness", "subgoss.harness", "emit_csv"),
)
RUNNERS = ("run_subgoss_multi", "run_single_agent_subgoss", "run_genie", "run_oful_baseline")
CLI_COMMANDS = ("run", "spread", "bounds")


class Tracer:
    def __init__(self):
        self.names = [f"{layer}.{attr}" for layer, _, attr in TARGETS]
        self.names += [f"cli.{c}" for c in CLI_COMMANDS]
        self._index = {n: i for i, n in enumerate(self.names)}
        n = len(self.names)
        self.calls = [0] * n
        self.busy = [0.0] * n
        self.self_time = [0.0] * n
        self.emitted_bytes = 0
        self._stack = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._span_id = array("q")
        self._span_parent = array("q")
        self._span_name = array("H")
        self._span_start = array("d")
        self._span_end = array("d")
        self._patches = []  # (owner, attribute, original)

    # -- wrapping --------------------------------------------------------

    def install(self) -> None:
        for layer, modname, attr in TARGETS:
            idx = self._index[f"{layer}.{attr}"]
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                orig = getattr(owner, meth)
                self._patch(owner, meth, self._wrap(orig, idx))
                continue
            orig = getattr(module, attr)
            after = self._count_bytes if attr == "emit_csv" else None
            wrapper = self._wrap(orig, idx, after)
            for mod in _subgoss_modules():
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, wrapper)
        cli = importlib.import_module("subgoss.cli")
        self._patch(cli, "main", self._wrap_cli(cli.main))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _count_bytes(self, args, kwargs) -> None:
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        self.emitted_bytes += os.path.getsize(path)

    def _wrap(self, fn, idx, after=None):
        def traced(*args, **kwargs):
            sid = self._enter()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(sid, idx, t0, perf_counter())
            if after is not None:
                after(args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_cli(self, main):
        def traced(argv=None):
            name = f"cli.{argv[0]}" if argv else None
            if name not in self._index:
                return main(argv)
            sid = self._enter()
            t0 = perf_counter()
            try:
                return main(argv)
            finally:
                self._exit(sid, self._index[name], t0, perf_counter())

        traced.__wrapped__ = main
        return traced

    def _enter(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, 0.0])
        return sid

    def _exit(self, sid, idx, t0, t1) -> None:
        _, child = self._stack.pop()
        dur = t1 - t0
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[1] += dur
            parent = top[0]
        self.calls[idx] += 1
        self.busy[idx] += dur
        self.self_time[idx] += dur - child
        self._span_id.append(sid)
        self._span_parent.append(parent)
        self._span_name.append(idx)
        self._span_start.append(t0)
        self._span_end.append(t1)

    # -- results ---------------------------------------------------------

    def stat(self, name: str):
        i = self._index[name]
        return self.calls[i], self.busy[i], self.self_time[i]

    def save(self, path) -> None:
        """Write every span as columns of an .npz file; `names` decodes `name`."""
        np.savez(
            path,
            names=np.array(self.names),
            id=np.frombuffer(self._span_id, dtype=np.int64),
            parent=np.frombuffer(self._span_parent, dtype=np.int64),
            name=np.frombuffer(self._span_name, dtype=np.uint16),
            start=np.frombuffer(self._span_start, dtype=np.float64),
            end=np.frombuffer(self._span_end, dtype=np.float64),
        )


def _subgoss_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "subgoss" or name.startswith("subgoss."))
    ]


def layer_metrics(tracer: Tracer, rounds: int, steps: int) -> dict:
    """Per-round per-layer figures as {name: (value, unit)}.

    `steps` is the number of simulated time steps (seeds x T) per round, the
    base of the draws-per-step ratio of `resample_actions`.
    """
    out = {}
    for layer, _, attr in TARGETS:
        name = f"{layer}.{attr}"
        calls, busy, self_s = tracer.stat(name)
        out[f"{name}.calls"] = (calls / rounds, "count")
        out[f"{name}.s"] = (busy / rounds, "s")
        if attr in RUNNERS:
            out[f"{name}.s_per_seed"] = (busy / calls if calls else 0.0, "s")
            out[f"{name}.self_s"] = (self_s / rounds, "s")
    draws = tracer.stat("environment.resample_actions")[0]
    out["environment.resample_actions.per_step"] = (draws / rounds / steps, "draws/step")
    out["harness.emit_csv.bytes"] = (tracer.emitted_bytes / rounds, "B")
    for c in CLI_COMMANDS:
        calls, busy, _ = tracer.stat(f"cli.{c}")
        out[f"cli.{c}.calls"] = (calls / rounds, "count")
        out[f"cli.{c}.s"] = (busy / rounds, "s")
    return out
