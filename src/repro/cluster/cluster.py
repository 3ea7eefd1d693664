"""Convenience assembly of a whole simulated cluster."""

from __future__ import annotations

from ..sim import Environment, Monitor, RngRegistry
from .machine import DAS5, MachineSpec
from .network import Fabric
from .node import Node
from .reservation import ReservationSystem

__all__ = ["Cluster", "build_das5"]


class Cluster:
    """Environment + nodes + fabric + reservation system, wired together."""

    def __init__(self, env: Environment, nodes: list[Node], fabric: Fabric,
                 rng: RngRegistry | None = None):
        self.env = env
        self.nodes = nodes
        self.fabric = fabric
        self.reservations = ReservationSystem(env, nodes)
        self.rng = rng or RngRegistry(0)

    def node(self, name: str) -> Node:
        return self.fabric.node(name)

    def monitor(self, interval: float = 1.0,
                nodes: list[Node] | None = None) -> Monitor:
        """A monitor with CPU/tx/rx probes for the given nodes (default all)."""
        mon = Monitor(self.env, interval)
        for n in (nodes if nodes is not None else self.nodes):
            mon.add_probe(f"{n.name}.cpu", lambda n=n: n.cpu_utilization)
            mon.add_probe(f"{n.name}.tx", lambda n=n: n.nic_tx_utilization)
            mon.add_probe(f"{n.name}.rx", lambda n=n: n.nic_rx_utilization)
            mon.add_probe(f"{n.name}.mem", lambda n=n: n.memory_utilization)
        return mon


def build_das5(env: Environment | None = None, n_nodes: int = 40,
               spec: MachineSpec = DAS5, seed: int = 0,
               solver: str | None = None, scale: int = 1) -> Cluster:
    """A DAS-5-like cluster of *n_nodes* identical machines (paper §IV-A).

    *solver* selects the fabric's flow-solver mode (see
    :class:`~repro.sim.flownet.FlowNetwork`).  *scale*
    multiplies *n_nodes* — the ×16 Fig. 2 runs build
    ``build_das5(scale=16)``-sized fabrics (1088 nodes for the 68-node
    paper setup; ×64 is 4352).
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if scale < 1:
        raise ValueError("scale must be >= 1")
    n_nodes *= scale
    env = env or Environment()
    nodes = [Node(env, f"node{i:03d}", spec) for i in range(n_nodes)]
    fabric = Fabric(env, solver=solver)
    fabric.attach_all(nodes)
    return Cluster(env, nodes, fabric, RngRegistry(seed))
