"""Flow-solver observability.

The incremental flow network (:mod:`repro.sim.flownet`) keeps process-wide
counters — coalesced solves, full reference solves, progressive-filling
rounds, flows/links actually re-solved, mutations absorbed by batching,
and numerical stalemates.  This module exposes them as plain snapshots for
reports and as :class:`~repro.sim.monitor.Monitor` probes, mirroring the
placement-planner counters, so experiment runs can chart solver work next
to CPU/NIC utilization (and the perf suite can assert budgets on it).
"""

from __future__ import annotations

from ..sim.flownet import FlowNetStats, flownet_stats
from ..sim.monitor import Monitor, TimeSeries

__all__ = ["solver_counters", "attach_solver_probes"]


def solver_counters() -> dict[str, int]:
    """Current flow-solver counters (cumulative since last reset)."""
    return flownet_stats.snapshot()


def attach_solver_probes(monitor: Monitor,
                         prefix: str = "solver",
                         ) -> dict[str, TimeSeries]:
    """Sample every solver counter as a ``<prefix>.<field>`` time series.

    Counters are cumulative; diff consecutive samples for rates.
    """
    return monitor.add_probes({
        f"{prefix}.{field}": (lambda f=field:
                              float(getattr(flownet_stats, f)))
        for field in FlowNetStats._COUNTERS})
