"""YarnCluster: wiring and lifecycle of a YARN deployment.

The counterpart of :class:`~repro.hdfs.cluster.HdfsCluster` for YARN:
the RM on the first node, a NodeManager on every node, with the daemon
startup costs the Mode I bootstrap pays (Figure 5).
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.machine import Machine
from repro.cluster.node import Node
from repro.sim.engine import Environment
from repro.yarn.client import YarnClient
from repro.yarn.config import YarnConfig
from repro.yarn.node_manager import NodeManager
from repro.yarn.resource_manager import ResourceManager


class YarnCluster:
    """One YARN deployment over a set of nodes."""

    def __init__(self, env: Environment, machine: Machine,
                 nodes: List[Node], config: Optional[YarnConfig] = None):
        self.env = env
        self.machine = machine
        self.nodes = list(nodes)
        self.config = config or YarnConfig()
        self.resource_manager = ResourceManager(env, self.config)
        self.node_managers = [NodeManager(env, node, self.config)
                              for node in self.nodes]
        for nm in self.node_managers:
            self.resource_manager.register_node_manager(nm)
        self.running = False
        faults = env.faults
        if faults is not None:
            faults.register_yarn(self)

    def start(self):
        """Boot the RM, then all NMs in parallel.  Generator."""
        yield self.env.process(self.resource_manager.start())
        starts = [self.env.process(nm.start()) for nm in self.node_managers]
        yield self.env.all_of(starts)
        self.running = True

    def stop(self) -> None:
        for nm in self.node_managers:
            nm.stop()
        self.resource_manager.stop()
        self.running = False

    def client(self) -> YarnClient:
        return YarnClient(self.env, self.resource_manager)

    def node_manager(self, node_name: str) -> NodeManager:
        for nm in self.node_managers:
            if nm.name == node_name:
                return nm
        raise KeyError(f"no NodeManager on {node_name}")
