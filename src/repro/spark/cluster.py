"""SparkStandaloneCluster: deploy-level wiring of master + workers.

What the RADICAL-Pilot Spark LRM (and SAGA-Hadoop's Spark plugin)
boots on an allocation: the Master on the first node, one Worker per
node, with the modeled daemon startup the Mode I bootstrap pays.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.machine import Machine
from repro.cluster.node import Node
from repro.sim.engine import Environment
from repro.spark.context import SparkConf, SparkContext
from repro.spark.master import SparkMaster, SparkWorker


class SparkStandaloneCluster:
    """One standalone Spark deployment over a set of nodes."""

    def __init__(self, env: Environment, machine: Machine,
                 nodes: List[Node]):
        self.env = env
        self.machine = machine
        self.nodes = list(nodes)
        self.master = SparkMaster(env)
        self.workers = [SparkWorker(env, node) for node in self.nodes]
        for worker in self.workers:
            self.master.register_worker(worker)
        self.running = False

    def start(self):
        """Boot the Master, then all Workers in parallel.  Generator."""
        yield self.env.process(self.master.start())
        starts = [self.env.process(w.start()) for w in self.workers]
        yield self.env.all_of(starts)
        self.running = True

    def stop(self) -> None:
        """``sbin/stop-all.sh``."""
        self.master.stop()
        self.running = False

    def context(self, conf: Optional[SparkConf] = None):
        """Create and start a SparkContext.  Generator returning it."""
        ctx = SparkContext(self.env, self.master, conf,
                           network=self.machine.network)
        yield from ctx.start()
        return ctx
