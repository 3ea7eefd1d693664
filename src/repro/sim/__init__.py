"""Discrete-event simulation substrate (kernel, fluid resources, network)."""

from .kernel import (AllOf, AnyOf, Environment, Event, Interrupt, Process,
                     SimulationError, Timeout)
from .fluid import Flow, FluidResource, maxmin_allocate
from .flownet import (FlowNetStats, FlowNetwork, Link, NetFlow,
                      flownet_stats, progressive_fill)
from .monitor import Monitor, TimeSeries
from .rng import RngRegistry

__all__ = [
    "Environment", "Event", "Timeout", "Process", "AllOf", "AnyOf",
    "Interrupt", "SimulationError",
    "Flow", "FluidResource", "maxmin_allocate",
    "FlowNetwork", "Link", "NetFlow", "progressive_fill",
    "FlowNetStats", "flownet_stats",
    "Monitor", "TimeSeries", "RngRegistry",
]
