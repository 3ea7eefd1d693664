"""The benchmark's three workloads: their cells, seeds and correctness checks.

A *cell* is one simulated scenario.  Every workload builds its cells from
the run's seed, runs them one after another in the calling process, and
afterwards checks the paper-shape predicates the repository's own benches
assert, so a cell fails when it raises *or* when its simulated output
breaks a predicate.

* ``fig2-sweep`` — the Fig. 2 dd-bag baseline over α ∈ {0, 25, 50, 75,
  100} %, built with :func:`repro.exec.fig2_sweep_specs`.
* ``table2-montage`` — the Table II Montage consumption sweep (standalone
  and scavenging rows, :func:`repro.exec.consumption_specs`) at data
  scale 1/32.
* ``revocation-storm`` — a replicated population of real payload bytes,
  a seeded revocation storm over half the leased victims, then a
  byte-for-byte read-back of every file, on the 128-node shape of the
  perf suite's ``fault_storm_large``.

Only APIs that outlive the ROADMAP's planned deletions are used: the
spec functions, :class:`~repro.exec.SweepRunner` with the serial
backend, the default flow solver, and placement given as an explicit
:class:`~repro.core.PlacementPolicy` (``with_alpha`` or ``policy=``).
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.core import DeploymentConfig, MemFSSDeployment, PlacementPolicy
from repro.exec import SweepRunner, consumption_specs, fig2_sweep_specs
from repro.faults import FaultInjector, fault_stats, revocation_storm
from repro.units import GB, MB
from repro.workflows import MONTAGE_PAPER_WIDTH

__all__ = ["Cell", "WORKLOADS"]


@dataclass(frozen=True)
class Cell:
    """One simulated scenario: a name and a thunk returning its payload."""

    name: str
    run: Callable[[], dict]


def _run_spec(runner: SweepRunner, spec) -> dict:
    return runner.run([spec])[0].payload


# -- fig2-sweep ---------------------------------------------------------------
FIG2_TASKS = 256
FIG2_FILE = 128 * MB
#: Paper §IV-B bounds, as bench_fig2_baseline asserts them.
FIG2_VICTIM_CPU_MAX = 0.05
FIG2_VICTIM_INGEST_MAX = 560 * MB


class Fig2Sweep:
    """Fig. 2: a write-only dd bag, one cell per α (the headline artifact)."""

    def first_config(self, seed: int) -> DeploymentConfig:
        return DeploymentConfig(seed=seed).with_alpha(0.0)

    def cells(self, seed: int) -> list[Cell]:
        runner = SweepRunner(backend="serial")
        specs = fig2_sweep_specs(n_tasks=FIG2_TASKS, file_size=FIG2_FILE,
                                 config=DeploymentConfig(seed=seed))
        return [Cell(f"alpha={spec.param('alpha'):g}",
                     partial(_run_spec, runner, spec)) for spec in specs]

    def check(self, payloads: dict[str, dict | None]) -> dict[str, str]:
        bad: dict[str, str] = {}
        ok = {name: p for name, p in payloads.items() if p is not None}
        for name, p in ok.items():
            if not p["victim_cpu"] < FIG2_VICTIM_CPU_MAX:
                bad[name] = f"victim CPU {p['victim_cpu']:.4f} >= 5%"
            elif not p["victim_rx_bytes_s"] < FIG2_VICTIM_INGEST_MAX:
                bad[name] = (f"victim ingest {p['victim_rx_bytes_s'] / MB:.1f}"
                             f" MB/s >= 560 MB/s")
        by_alpha = sorted(ok.items(), key=lambda kv: kv[1]["alpha"])
        for (_, prev), (name, cur) in zip(by_alpha, by_alpha[1:]):
            if cur["victim_rx_bytes_s"] > prev["victim_rx_bytes_s"] + 1e-6:
                bad.setdefault(name, "victim ingest rises with alpha")
        if by_alpha and by_alpha[-1][1]["alpha"] == 1.0:
            name, top = by_alpha[-1]
            slowest = max(p["runtime_s"] for _, p in by_alpha)
            if top["runtime_s"] != slowest:
                bad.setdefault(name, "alpha=100% is not the slowest case")
        return bad


# -- table2-montage -----------------------------------------------------------
#: Data down-scale of Table II.  1/32 is the smallest scale at which the
#: footprint still fits 20 standalone nodes and not 19 (1/64 fits neither).
TABLE2_SCALE = 32
TABLE2_OWN_CAPACITY = 60 * GB / TABLE2_SCALE
TABLE2_VICTIM_MEMORY = 28 * GB / TABLE2_SCALE
TABLE2_TOTAL_NODES = 40


def _row_name(spec) -> str:
    if spec.param("mode") == "standalone":
        return f"standalone-{spec.param('n_nodes')}"
    return f"scavenging-{spec.param('n_own')}"


class Table2Montage:
    """Table II: Montage standalone vs. scavenging node-hours."""

    def first_config(self, seed: int) -> DeploymentConfig:
        # The first scavenging row's deployment (4 own + 36 victims),
        # with run_scavenging's capacity-proportional α.
        own = 4 * TABLE2_OWN_CAPACITY
        victim = (TABLE2_TOTAL_NODES - 4) * TABLE2_VICTIM_MEMORY
        return DeploymentConfig(
            n_own=4, n_victim=TABLE2_TOTAL_NODES - 4,
            victim_memory=TABLE2_VICTIM_MEMORY,
            own_store_capacity=TABLE2_OWN_CAPACITY,
            seed=seed).with_alpha(own / (own + victim))

    def cells(self, seed: int) -> list[Cell]:
        runner = SweepRunner(backend="serial")
        specs = consumption_specs(
            "montage", {"width": MONTAGE_PAPER_WIDTH // TABLE2_SCALE,
                        "parallel_task_scale": float(TABLE2_SCALE)},
            standalone_nodes=(20, 19), scavenging_own=(4, 8, 16),
            total_nodes=TABLE2_TOTAL_NODES,
            victim_memory=TABLE2_VICTIM_MEMORY,
            own_store_capacity=TABLE2_OWN_CAPACITY)
        specs = [dataclasses.replace(spec, seed=seed) for spec in specs]
        return [Cell(_row_name(spec), partial(_run_spec, runner, spec))
                for spec in specs]

    def check(self, payloads: dict[str, dict | None]) -> dict[str, str]:
        bad: dict[str, str] = {}

        def runnable(p: dict) -> bool:
            return (p["fits"] and math.isfinite(p["runtime_s"])
                    and math.isfinite(p["node_hours"])
                    and p["node_hours"] > 0)

        for name, p in payloads.items():
            if p is None:
                continue
            if name == "standalone-19":
                reason = (p.get("degraded") or {}).get("reason")
                if p["fits"] or reason != "data-does-not-fit":
                    bad[name] = f"expected data-does-not-fit, got {reason}"
            elif not runnable(p):
                bad[name] = "runnable row produced no numbers"
        base = payloads.get("standalone-20")
        for name, p in payloads.items():
            if not name.startswith("scavenging-") or p is None \
                    or name in bad:
                continue
            if base is None or "standalone-20" in bad:
                bad[name] = "no standalone-20 row to compare against"
            elif not p["node_hours"] < base["node_hours"]:
                bad[name] = "scavenging node-hours not below standalone"
        return bad


# -- revocation-storm ---------------------------------------------------------
STORM_FILES = 24
STORM_FILE_SIZE = 4 * MB
STORM_AT = 0.05
STORM_FRACTION = 0.5


def _storm_config(seed: int) -> DeploymentConfig:
    return DeploymentConfig(
        n_own=4, n_victim=28, scale=4, victim_memory=2 * GB,
        own_store_capacity=16 * GB, stripe_size=1 * MB, seed=seed,
        io_retries=4,
        policy=PlacementPolicy.own_victim(0.25, replication=2))


def _storm(seed: int) -> dict:
    """Write, revoke half the victims mid-write, read everything back."""
    dep = MemFSSDeployment(_storm_config(seed))
    env, fs, agent = dep.env, dep.fs, dep.own[0]
    injector = FaultInjector(
        env, revocation_storm(at=STORM_AT, fraction=STORM_FRACTION),
        manager=dep.manager, reservations=dep.cluster.reservations,
        rng=dep.rng)
    injector.start()
    content = random.Random(seed)
    blobs = [content.randbytes(STORM_FILE_SIZE) for _ in range(STORM_FILES)]
    paths = [f"/bench/f{i}" for i in range(STORM_FILES)]

    def scenario():
        for path, blob in zip(paths, blobs):
            yield from fs.write_file(agent, path, payload=blob)
        intact = 0
        for path, blob in zip(paths, blobs):
            _n, back = yield from fs.read_file(agent, path)
            intact += back == blob
        return intact

    proc = env.process(scenario())
    intact = env.run(until=proc)
    env.run()  # drain in-flight evacuations
    return {
        "files": STORM_FILES,
        "intact": intact,
        "sim_end_s": env.now,
        "fault_counters": fault_stats.snapshot(),
        "injected": [[t, kind, list(names)]
                     for t, kind, names in injector.log],
    }


class RevocationStorm:
    """Real bytes through placement, failure handling and the store."""

    def first_config(self, seed: int) -> DeploymentConfig:
        return _storm_config(seed)

    def cells(self, seed: int) -> list[Cell]:
        return [Cell("storm", partial(_storm, seed))]

    def check(self, payloads: dict[str, dict | None]) -> dict[str, str]:
        bad: dict[str, str] = {}
        for name, p in payloads.items():
            if p is None:
                continue
            if p["intact"] != p["files"]:
                bad[name] = f"{p['files'] - p['intact']} files lost or corrupt"
            elif p["fault_counters"]["evacuations"] < 1:
                bad[name] = "the storm evacuated nothing"
        return bad


WORKLOADS = {
    "fig2-sweep": Fig2Sweep(),
    "table2-montage": Table2Montage(),
    "revocation-storm": RevocationStorm(),
}
