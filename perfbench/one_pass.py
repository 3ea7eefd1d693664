"""One pass of one workload, in a fresh process.

``run.py`` starts this script once per pass so module-level caches
(placement plans, weight fits) start cold, as they do for a ``memfss``
invocation.  It prints one JSON line: the set-up time, each cell's host
seconds, payload digest and failure reason, the peak RSS of this
process, the registry counters and, with ``--profile 1``, the per-layer
ledger of a cProfile taken around the cells.  With ``--setup-only 1`` it
stops after the set-up and prints only that.  Times are read from
``time.monotonic`` and each interval's start is printed with it, so that
``run.py`` can match its calibration samples to them.

    PYTHONPATH=src python3 perfbench/one_pass.py --workload fig2-sweep --seed 1
"""

import time

_T0 = time.monotonic()  # set-up time counts from here: imports first

import argparse  # noqa: E402
import cProfile  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def payload_digest(payload: dict) -> str:
    """SHA-256 of the canonical JSON of a simulated payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import layers
    from repro.core import MemFSSDeployment
    from repro.metrics import metrics_registry
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    MemFSSDeployment(workload.first_config(args.seed))
    setup_s = time.monotonic() - _T0
    if args.setup_only:
        print(json.dumps({"setup_start": _T0, "setup_s": setup_s}))
        return

    profiler = cProfile.Profile() if args.profile else None
    cells, payloads, snapshots = [], {}, []
    for cell in workload.cells(args.seed):
        metrics_registry.reset()
        payload, error = None, None
        t = time.monotonic()
        if profiler is not None:
            profiler.enable()
        try:
            payload = cell.run()
        except Exception as exc:  # a raising cell is a failed cell
            error = "".join(traceback.format_exception_only(exc)).strip()
            traceback.print_exc()
        finally:
            if profiler is not None:
                profiler.disable()
        seconds = time.monotonic() - t
        snapshots.append(metrics_registry.snapshot())
        payloads[cell.name] = payload
        cells.append({"name": cell.name, "start": t, "seconds": seconds,
                      "error": error,
                      "digest": None if payload is None
                      else payload_digest(payload)})
    broken = workload.check(payloads)
    for row in cells:
        if row["error"] is None:
            row["error"] = broken.get(row["name"])

    counters = layers.registry_counters(snapshots)
    result = {"setup_start": _T0, "setup_s": setup_s, "cells": cells,
              "counters": counters,
              "peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if profiler is not None:
        stats = pstats.Stats(profiler).stats
        counters.update(layers.profile_counters(stats))
        counters.update(layers.derived_ratios(counters))
        result["ledger"] = layers.layer_ledger(
            stats, sum(row["seconds"] for row in cells))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
