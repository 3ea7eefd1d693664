"""The repository benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload fig2-sweep --seed 1 \
        --seconds 30 --trace 0

Run from the repository root.  Each *pass* runs every cell of the
workload once, in a fresh child process (``one_pass.py``) with BLAS and
OpenMP pinned to one thread and deprecation warnings turned into errors.
An untraced run first makes ``SETUP_RUNS`` children that only set up,
then repeats passes until ``--seconds`` have elapsed (at least one
pass).  The run and its children are pinned to one CPU.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median host
seconds of all cells over the passes), ``slowest_cell_s`` (the largest
per-cell median), ``setup_s`` (importing repro and building the
workload's first deployment; median over every child) and
``peak_rss_mb`` (peak resident memory of a pass's process; median).
While a child runs, this process times a calibration kernel on the same
CPU, and each cell's and set-up's host seconds are rescaled by the
kernel samples taken during it to a host of the reference speed, which
divides out the drift of a shared machine (see ``calibrate.py``).  The same metrics in raw host seconds are
printed on a ``raw`` line above the result.  ``--trace 1`` alternates
untraced and profiled passes and reports the per-layer ledger (see
``layers.py``) and ``trace.overhead``; traced passes are not rescaled,
so their ``self_s`` are raw host seconds.

Every cell's simulated payload is digested (SHA-256 of canonical JSON);
the digests must repeat across passes.  ``--record FILE`` writes them,
and ``--compare FILE`` checks them against a file recorded earlier — a
perf change shows byte identity to its parent that way.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` and ``failed`` (cells) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import INTERVAL_S, HostClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Set-up-only children per run, beside the passes' own set-ups: a
#: workload with few passes still takes setup_s as a median of many.
SETUP_RUNS = 8
#: A run must end within this many seconds whatever --seconds says.
DEADLINE_S = 170.0
#: Child environment: one BLAS/OpenMP thread, so a run keeps to one CPU.
PINNED = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


def workload_names() -> list[str]:
    """The workloads BENCHMARK.json names (this process never imports
    repro: every measurement happens in a fresh child)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def run_child(clock: HostClock, workload: str, seed: int, timeout: float,
              *, profile: bool = False, setup_only: bool = False) -> dict:
    """One ``one_pass.py`` child's result, its set-up and every cell given
    the ``scale`` of the kernel samples *clock* took during it."""
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-W", "error::DeprecationWarning",
           str(BENCH / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--profile", str(int(profile)),
           "--setup-only", str(int(setup_only))]
    deadline = time.perf_counter() + timeout
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        while True:
            clock.tick()
            try:
                out, err = proc.communicate(timeout=INTERVAL_S)
                break
            except subprocess.TimeoutExpired:
                if time.perf_counter() > deadline:
                    raise BenchError(f"a {workload} pass ran past the "
                                     f"deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"a {workload} pass failed (exit "
                         f"{proc.returncode}):\n{err.strip()}")
    result = json.loads(lines[-1])
    for interval, start, seconds in (
            [(result, result["setup_start"], result["setup_s"])]
            + [(c, c["start"], c["seconds"]) for c in result.get("cells", ())]):
        interval["scale"] = clock.scale(start, start + seconds)
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               ) -> tuple[list[dict], list[dict], list[dict]]:
    """(set-up-only children, untraced passes, traced passes) made within
    *seconds*."""
    # One CPU for this process, its children and the clock's samples:
    # the host's drift is per CPU (see calibrate.py).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = time.perf_counter()
    clock = HostClock()

    def left() -> float:
        return DEADLINE_S - (time.perf_counter() - start)

    # A traced run reports no setup_s.
    setups = [run_child(clock, workload, seed, left(), setup_only=True)
              for _ in range(0 if trace else SETUP_RUNS)]
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        plain.append(run_child(clock, workload, seed, left()))
        if trace:
            traced.append(run_child(clock, workload, seed, left(),
                                    profile=True))
        if time.perf_counter() - start >= seconds:
            return setups, plain, traced


def raw_wall(p: dict) -> float:
    """Host seconds of a pass's cells."""
    return sum(cell["seconds"] for cell in p["cells"])


def ref_wall(p: dict) -> float:
    """A pass's cells in seconds of the reference host."""
    return sum(cell["seconds"] * cell["scale"] for cell in p["cells"])


def end_to_end(setups: list[dict], plain: list[dict], rescale: bool = True,
               ) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, in reference-host seconds or, without
    *rescale*, in raw host seconds."""
    def ref(interval: dict, seconds: str) -> float:
        return interval[seconds] * (interval["scale"] if rescale else 1.0)

    med = statistics.median
    per_cell: dict[str, list[float]] = {}
    for p in plain:
        for c in p["cells"]:
            per_cell.setdefault(c["name"], []).append(ref(c, "seconds"))
    return {
        "wall_s": (med(sum(ref(c, "seconds") for c in p["cells"])
                       for p in plain), "s"),
        # The cell with the highest median over passes, at that median.
        "slowest_cell_s": (max(med(v) for v in per_cell.values()), "s"),
        "setup_s": (med(ref(p, "setup_s") for p in setups + plain), "s"),
        "peak_rss_mb": (med(p["peak_rss_mb"] for p in plain), "MB"),
    }


def per_layer(plain: list[dict], traced: list[dict],
              ) -> dict[str, tuple[float, str]]:
    med = statistics.median
    out: dict[str, tuple[float, str]] = {}
    for name in traced[0]["ledger"]:
        unit = {"self_s": "s", "share": "fraction",
                "calls": "count"}[name.rsplit(".", 1)[1]]
        out[name] = (med(p["ledger"][name] for p in traced), unit)
    for name, value in traced[0]["counters"].items():
        out[name] = (value, "ratio" if name.endswith("_ratio") else "count")
    out["trace.overhead"] = (med(raw_wall(p) for p in traced)
                             / med(raw_wall(p) for p in plain), "ratio")
    return out


def digests(passes: list[dict]) -> tuple[dict[str, str | None], list[str]]:
    """The cells' digests, and a problem line per cell that varied."""
    first = {c["name"]: c["digest"] for c in passes[0]["cells"]}
    problems = []
    for p in passes[1:]:
        for c in p["cells"]:
            if c["digest"] != first.get(c["name"]):
                problems.append(f"{c['name']}: payload differs between "
                                f"passes")
    return first, sorted(set(problems))


def load_recorded(path: str, workload: str, seed: int) -> dict[str, str]:
    """The cell digests a ``--record`` run of *workload* and *seed* wrote."""
    recorded = json.loads(Path(path).read_text())
    if recorded.get("workload") != workload or recorded.get("seed") != seed:
        raise BenchError(f"{path} records {recorded.get('workload')} seed "
                         f"{recorded.get('seed')}, not {workload} seed {seed}")
    return recorded["cells"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (see perfbench/README.md).")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE",
                        help="write the cells' payload digests to FILE")
    parser.add_argument("--compare", metavar="FILE",
                        help="check the digests against a recorded FILE")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.workload not in workload_names():
            raise BenchError(f"BENCHMARK.json names no workload "
                             f"{args.workload!r}")
        theirs = (load_recorded(args.compare, args.workload, args.seed)
                  if args.compare else None)
        setups, plain, traced = run_passes(args.workload, args.seed,
                                           args.seconds, bool(args.trace))
        cells, problems = digests(plain + traced)
        if theirs is not None:
            problems += [f"{name}: digest differs from {args.compare}"
                         for name in sorted(set(theirs) | set(cells))
                         if theirs.get(name) != cells.get(name)]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failures = [(c["name"], c["error"]) for p in plain + traced
                for c in p["cells"] if c["error"] is not None]
    attempted = sum(len(p["cells"]) for p in plain + traced)
    metrics = (per_layer(plain, traced) if args.trace
               else end_to_end(setups, plain))

    print(f"# {args.workload} seed={args.seed}: {len(plain)} passes"
          + (f" + {len(traced)} traced" if traced else ""))
    for name, digest in cells.items():
        print(f"digest {name} {digest}")
    print(f"cells: {attempted} attempted, {len(failures)} failed")
    for name, error in sorted(set(failures)):
        print(f"FAILED {name}: {error}")
    for problem in problems:
        print(f"MISMATCH {problem}")
    for p in plain:
        print(f"pass: {raw_wall(p):.3f} host s = {ref_wall(p):.3f} "
              f"reference s")
    if not args.trace:
        print("raw " + json.dumps({
            name: {"value": value, "unit": unit} for name, (value, unit)
            in end_to_end(setups, plain, rescale=False).items()}))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if args.record:
        Path(args.record).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "cells": cells},
            indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
