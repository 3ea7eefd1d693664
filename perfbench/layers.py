"""Per-layer ledger: a cProfile of the cells split across repro's modules.

The program is profiled from outside (no edits): a ``cProfile.Profile``
wraps the cells, and this module folds its statistics into the layers
below.

* ``L.self_s`` — profiler self time of L's functions.  Time spent in
  code outside the repository (builtins, NumPy's C and Python wrappers,
  the standard library) is charged to the layer of the repro function
  that called it, split by the per-caller times pstats records.
* ``L.share`` — ``L.self_s`` over the traced wall time of the cells.
* ``L.calls`` — calls into L's public (non-underscore) functions whose
  direct caller lies outside L.  cProfile counts every resumption of a
  generator as a call, so simulated processes resumed by the event
  kernel count once per resumption.

Counters come from the program's own registry
(:data:`repro.metrics.metrics_registry`, see ``_REGISTRY``) or from the
profiler's call counts of named functions (``_profiled_functions``).
"""

from __future__ import annotations

import os

__all__ = ["LAYERS", "layer_ledger", "registry_counters",
           "profile_counters", "derived_ratios"]

LAYERS = ("sim.kernel", "sim.flownet", "sim.fluid", "sim.monitor",
          "hashing", "fs.placement", "fs", "store", "workflows", "tenants",
          "exec", "other")

#: Modules that are a layer of their own; checked before packages.
#: ``sim/select.py`` and ``sim/shard.py`` are flownet's solver modes.
_MODULE_LAYER = {
    "sim/kernel.py": "sim.kernel",
    "sim/flownet.py": "sim.flownet",
    "sim/select.py": "sim.flownet",
    "sim/shard.py": "sim.flownet",
    "sim/fluid.py": "sim.fluid",
    "sim/monitor.py": "sim.monitor",
    "fs/placement.py": "fs.placement",
}
_PACKAGE_LAYER = {"hashing": "hashing", "fs": "fs", "store": "store",
                  "workflows": "workflows", "tenants": "tenants",
                  "exec": "exec"}

_REPRO = os.sep + "repro" + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

#: Counters read from the metrics registry: name -> (stats object, field).
_REGISTRY = {
    "sim.flownet.solves": ("solver", "solves"),
    "sim.flownet.rounds": ("solver", "rounds"),
    "sim.flownet.flows_touched": ("solver", "flows_touched"),
    "sim.flownet.links_touched": ("solver", "links_touched"),
    "sim.flownet.batch_coalesced": ("solver", "batch_coalesced"),
    "sim.flownet.stalemates": ("solver", "stalemates"),
    "fs.placement.plan_hits": ("planner", "plan_hits"),
    "fs.placement.plan_misses": ("planner", "plan_misses"),
    "fs.placement.policy_hits": ("planner", "policy_hits"),
    "fs.placement.policy_misses": ("planner", "policy_misses"),
    "fs.writes_checked": ("pressure", "writes_checked"),
    "fs.spilled_writes": ("pressure", "spilled_writes"),
    "fs.evacuations": ("faults", "evacuations"),
    "store.retries": ("faults", "retries"),
    "store.hedged_reads": ("faults", "hedged_reads"),
    "exec.scenarios_run": ("exec", "scenarios_run"),
    "exec.store_stores": ("exec", "store_stores"),
}


def _profiled_functions() -> dict[str, list]:
    """Counters read from profiler call counts: name -> functions."""
    from repro.hashing.hrw import HrwHasher, stable_digest
    from repro.sim.fluid import FluidResource
    from repro.sim.kernel import Environment
    from repro.workflows.dag import Workflow
    return {
        # Calendar insertions: the two methods that push onto the calendar.
        "sim.kernel.events": [Environment._schedule_event,
                              Environment.call_later],
        "sim.fluid.rebalances": [FluidResource._rebalance],
        "hashing.hasher_builds": [HrwHasher.__init__],
        "hashing.digests": [stable_digest],
        "workflows.consumers_of_calls": [Workflow.consumers_of],
    }


def _key(fn) -> tuple[str, int, str]:
    """The pstats label of a Python function."""
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def _classify(func: tuple) -> str | None:
    """Layer of a pstats label; None for code outside the repository."""
    filename = func[0]
    if filename.startswith(_BENCH_DIR):
        return "other"          # the benchmark's own harness code
    i = filename.rfind(_REPRO)
    if i < 0:
        return None             # builtin, stdlib or third-party
    rel = filename[i + len(_REPRO):].replace(os.sep, "/")
    if rel in _MODULE_LAYER:
        return _MODULE_LAYER[rel]
    return _PACKAGE_LAYER.get(rel.split("/", 1)[0], "other")


def _owners(func, stats, memo, active) -> dict[str, float]:
    """Layers that pay for *func*'s self time, as weights summing to 1."""
    layer = _classify(func)
    if layer is not None:
        return {layer: 1.0}
    if func in memo:
        return memo[func]
    entry = stats.get(func)
    if entry is None or func in active:
        return {"other": 1.0}
    callers = entry[4]
    # callers: {caller: (nc, cc, tt, ct)}; weight by time, else by calls.
    total = sum(c[2] for c in callers.values())
    col = 2 if total > 0 else 0
    total = total if total > 0 else sum(c[0] for c in callers.values())
    if total <= 0:
        return {"other": 1.0}
    active.add(func)
    mix: dict[str, float] = {}
    for caller, c in callers.items():
        weight = c[col] / total
        for owner, share in _owners(caller, stats, memo, active).items():
            mix[owner] = mix.get(owner, 0.0) + weight * share
    active.discard(func)
    memo[func] = mix
    return mix


def layer_ledger(stats: dict, wall_s: float) -> dict[str, float]:
    """``L.self_s``, ``L.share`` and ``L.calls`` for every layer from a
    ``pstats.Stats(...).stats`` dict over cells that took *wall_s*."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    memo: dict = {}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        for owner, share in _owners(func, stats, memo, set()).items():
            self_s[owner] += tt * share
        layer = _classify(func)
        if layer is None or func[2][:1] in ("_", "<"):
            continue
        calls[layer] += sum(c[0] for caller, c in callers.items()
                            if _classify(caller) != layer)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / wall_s if wall_s > 0 else 0.0
        out[f"{layer}.calls"] = calls[layer]
    return out


def profile_counters(stats: dict) -> dict[str, int]:
    """Counters taken from profiler call counts."""
    from repro.store.protocol import RateTracker
    from repro.store.server import StoreServer
    out = {name: sum(stats.get(_key(fn), (0, 0))[1] for fn in fns)
           for name, fns in _profiled_functions().items()}
    # One RateTracker.record per request a store server admits.
    record = stats.get(_key(RateTracker.record))
    serve = _key(StoreServer.serve)
    out["store.requests"] = (record[4].get(serve, (0,))[0]
                             if record is not None else 0)
    return out


def registry_counters(snapshots: list[dict]) -> dict[str, float]:
    """Registry counters summed over per-cell snapshots.

    Each snapshot is ``metrics_registry.snapshot()`` taken after one cell
    that started from a ``reset()``; executor-group counters are not
    reset per cell, so only the last snapshot's value counts for them.
    """
    out: dict[str, float] = {}
    for name, (group, field) in _REGISTRY.items():
        values = [snap.get(group, {}).get(field, 0) for snap in snapshots]
        if group == "exec":
            out[name] = values[-1] if values else 0
        else:
            out[name] = sum(values)
    return out


def derived_ratios(counters: dict[str, float]) -> dict[str, float]:
    """The two useful-outcome ratios; 0 when neither outcome happened."""
    def ratio(num: float, other: float) -> float:
        return num / (num + other) if num + other > 0 else 0.0
    return {
        "sim.flownet.coalesce_ratio": ratio(
            counters["sim.flownet.batch_coalesced"],
            counters["sim.flownet.solves"]),
        "fs.placement.plan_hit_ratio": ratio(
            counters["fs.placement.plan_hits"],
            counters["fs.placement.plan_misses"]),
    }
