"""Utilization summaries and text rendering for tables/figures."""

from .availability import (attach_availability_probes,
                           availability_counters,
                           render_availability_report)
from .exec import attach_exec_probes, exec_counters
from .faults import (attach_fault_probes, fault_counters,
                     render_fault_report)
from .market import attach_market_probes, market_counters
from .placement import attach_placement_probes, placement_counters
from .pressure import (attach_fill_probes, attach_pressure_probes,
                       class_fill_ratios, pressure_counters,
                       render_pressure_report)
from .registry import MetricsRegistry, metrics_registry
from .report import fmt_pct, render_bars, render_table
from .solver import attach_solver_probes, solver_counters
from .utilization import NodeUtilization, class_utilization, node_utilization

__all__ = [
    "render_table", "render_bars", "fmt_pct",
    "NodeUtilization", "node_utilization", "class_utilization",
    "placement_counters", "attach_placement_probes",
    "solver_counters", "attach_solver_probes",
    "fault_counters", "attach_fault_probes", "render_fault_report",
    "exec_counters", "attach_exec_probes",
    "pressure_counters", "attach_pressure_probes", "attach_fill_probes",
    "class_fill_ratios", "render_pressure_report",
    "market_counters", "attach_market_probes",
    "availability_counters", "attach_availability_probes",
    "render_availability_report",
    "MetricsRegistry", "metrics_registry",
]
