"""Steadiness self-check: two sets of benchmark runs must agree.

    python3 perfbench/steady.py [--ledger perfbench/LEDGER.json --label TEXT]

Run from the repository root.  For every workload of BENCHMARK.json it
makes ``RUNS_PER_SET`` runs in set A (seeds 1, 2, ...) and as many in
set B (held-out seeds 101, 102, ...), interleaved A/B so drift of the
host hits both sets alike, each for BENCHMARK.json's ``run_seconds``.
For every end-to-end metric it prints each set's median and quartiles
and the spread of all runs together — (q3 − q1) / median, quartiles as
``statistics.quantiles(values, n=4)`` gives them — and checks that

* every run is correct with no failed cell;
* the spread is within the metric's bound;
* set B's median is not worse than set A's by more than the bound.

Exit status 0 means every check passed.  With ``--ledger`` it also makes
one traced run per workload and appends an entry — the end-to-end
numbers, their raw host-second medians, the per-layer ledger and the
payload digests — to that JSON file, so later changes compare against a
recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SET_B_SEED_OFFSET = 100
RUNS_PER_SET = 5


def bench_run(workload: str, seed: int, seconds: int, trace: bool,
              ) -> tuple[dict, dict[str, str], dict]:
    """One run of run.py: (its result object, its cell digests, its raw
    host-second metrics)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed (exit {proc.returncode})"
                         f":\n{proc.stderr.strip()}")
    digests, raw = {}, {}
    for line in lines:
        if line.startswith("digest "):
            _, name, digest = line.split(" ", 2)
            digests[name] = digest
        elif line.startswith("raw "):
            raw = json.loads(line[len("raw "):])
    return json.loads(lines[-1]), digests, raw


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def judge(metric: dict, a: list[float], b: list[float]) -> dict:
    """Medians, quartiles, spread and the agreement verdict of one metric."""
    q1, med, q3 = quartiles(a + b)
    spread = (q3 - q1) / med
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = ((med_b - med_a) / med_a if metric["better"] == "lower"
             else (med_a - med_b) / med_a)
    bound = metric["bound"]
    return {"unit": metric["unit"], "bound": bound,
            "set_a": {"values": a, "median": med_a,
                      "quartiles": list(quartiles(a))},
            "set_b": {"values": b, "median": med_b,
                      "quartiles": list(quartiles(b))},
            "median": med, "q1": q1, "q3": q3, "spread": spread,
            "b_worse_than_a": worse,
            "agree": spread <= bound and worse <= bound}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ledger", metavar="FILE",
                        help="append the results and a traced ledger here")
    parser.add_argument("--label", default="",
                        help="what the ledger entry measures")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    entry = {"label": args.label,
             "date": time.strftime("%Y-%m-%d", time.gmtime()),
             "host": {"python": platform.python_version(),
                      "machine": platform.machine(),
                      "cpus": len(os.sched_getaffinity(0))},
             "run_seconds": seconds, "runs_per_set": RUNS_PER_SET,
             "workloads": {}}
    all_agree = True
    for workload in names:
        sets = {"A": [], "B": []}
        raw_runs = []
        for i in range(1, RUNS_PER_SET + 1):
            for name, seed in (("A", i), ("B", SET_B_SEED_OFFSET + i)):
                result, _, raw = bench_run(workload, seed, seconds,
                                           trace=False)
                sets[name].append((seed, result))
                raw_runs.append(raw)
                print(f"{workload} set {name} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in result["metrics"].items()),
                      flush=True)
        runs = sets["A"] + sets["B"]
        report = {
            "seeds": {name: [seed for seed, _ in rows]
                      for name, rows in sets.items()},
            "cells_attempted": sum(r["attempted"] for _, r in runs),
            "cells_failed": sum(r["failed"] for _, r in runs),
            "all_correct": all(r["correct"] for _, r in runs),
            "end_to_end": {}}
        agree = report["all_correct"] and report["cells_failed"] == 0
        for metric in spec["end_to_end"]:
            values = {name: [r["metrics"][metric["name"]]["value"]
                             for _, r in rows]
                      for name, rows in sets.items()}
            verdict = judge(metric, values["A"], values["B"])
            raws = [raw[metric["name"]]["value"] for raw in raw_runs]
            q1, med, q3 = quartiles(raws)
            verdict["raw"] = {"values": raws, "median": med,
                              "spread": (q3 - q1) / med}
            report["end_to_end"][metric["name"]] = verdict
            agree = agree and verdict["agree"]
            print(f"  {workload:17s} {metric['name']:15s} "
                  f"A {verdict['set_a']['median']:9.4f} "
                  f"B {verdict['set_b']['median']:9.4f} "
                  f"[{verdict['q1']:.4f}, {verdict['q3']:.4f}] "
                  f"spread {verdict['spread']:.3f} "
                  f"(bound {metric['bound']}, target "
                  f"{metric['bound'] / 3:.3f}) "
                  f"B vs A {verdict['b_worse_than_a']:+.3f} "
                  f"{'agree' if verdict['agree'] else 'DISAGREE'}",
                  flush=True)
        print(f"  {workload}: {report['cells_attempted']} cells, "
              f"{report['cells_failed']} failed, "
              f"{'all correct' if report['all_correct'] else 'INCORRECT'}",
              flush=True)
        if args.ledger:
            traced, digests, _ = bench_run(workload, 1, seconds,
                                           trace=True)
            report["per_layer"] = {k: v["value"]
                                   for k, v in traced["metrics"].items()}
            report["digests_seed_1"] = digests
            agree = agree and traced["correct"]
        report["agree"] = agree
        all_agree = all_agree and agree
        entry["workloads"][workload] = report
    if args.ledger:
        path = Path(args.ledger)
        ledger = json.loads(path.read_text()) if path.exists() else []
        ledger.append(entry)
        path.write_text(json.dumps(ledger, indent=1) + "\n")
    print("steady: every metric agrees" if all_agree
          else "steady: some metric DISAGREES")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
