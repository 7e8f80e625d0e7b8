"""FaultPlan: the user-facing fault schedule, armed per session.

A plan is a list of validated :class:`~repro.faults.spec.FaultSpec`s
plus the injector that executes them.  ``session.faults`` hands one
out lazily; standalone simulations (no :class:`Session`) can build one
directly from an environment::

    plan = FaultPlan(env=env)
    plan.node_crash(at=120.0, node="c251-101")
    plan.network_degrade(at=300.0, factor=0.25, duration=60.0)

Every builder validates eagerly and arms the spec immediately, so an
impossible schedule fails at plan-construction time, not mid-run.
"""

from __future__ import annotations

from typing import List, Optional

from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSpec
from repro.sim.engine import Environment, SimulationError


class FaultPlan:
    """A deterministic schedule of faults for one environment."""

    def __init__(self, session=None, env: Optional[Environment] = None):
        if session is None and env is None:
            raise SimulationError("FaultPlan needs a session or an env")
        self.session = session
        self.env = env if env is not None else session.env
        self.specs: List[FaultSpec] = []
        # Installed eagerly: clusters built after this register as
        # targets (the whole point of touching ``session.faults`` before
        # a pilot boots).
        self.injector: FaultInjector = FaultInjector.install(self.env)
        if session is not None:
            self.injector.bind_registry(session.registry)

    # ----------------------------------------------------------- scheduling
    def add(self, *specs: FaultSpec) -> "FaultPlan":
        """Validate and arm specs; chainable."""
        for spec in specs:
            spec.validate()
            self.specs.append(spec)
            self.injector.schedule(spec)
        return self

    # ------------------------------------------------- convenience builders
    def node_crash(self, at: float, node: str,
                   duration: Optional[float] = None) -> "FaultPlan":
        """Crash a compute node (recovering after ``duration`` if set)."""
        return self.add(FaultSpec(kind="node_crash", at=at, target=node,
                                  duration=duration))

    def datanode_loss(self, at: float, node: str) -> "FaultPlan":
        """Kill the HDFS DataNode on ``node`` (permanently)."""
        return self.add(FaultSpec(kind="datanode_loss", at=at, target=node))

    def nodemanager_loss(self, at: float, node: str) -> "FaultPlan":
        """Kill the YARN NodeManager on ``node`` (permanently)."""
        return self.add(FaultSpec(kind="nodemanager_loss", at=at,
                                  target=node))

    def network_degrade(self, at: float, factor: float,
                        duration: Optional[float] = None,
                        machine: str = "") -> "FaultPlan":
        """Scale interconnect bandwidth to ``factor`` of nominal."""
        return self.add(FaultSpec(kind="network_degrade", at=at,
                                  target=machine, factor=factor,
                                  duration=duration))

    def network_partition(self, at: float, group: str,
                          duration: float) -> "FaultPlan":
        """Cut ``group`` (comma-separated node names) off the fabric."""
        return self.add(FaultSpec(kind="network_partition", at=at,
                                  target=group, duration=duration))

    def straggler(self, at: float, node: str, factor: float,
                  duration: Optional[float] = None) -> "FaultPlan":
        """Slow ``node``'s CPU down by ``factor`` (> 1)."""
        return self.add(FaultSpec(kind="straggler", at=at, target=node,
                                  factor=factor, duration=duration))

    def container_kill(self, at: float, node: str = "") -> "FaultPlan":
        """Kill one live task container (on ``node``, or anywhere)."""
        return self.add(FaultSpec(kind="container_kill", at=at,
                                  target=node))

    def unit_error(self, target: str, times: int = 1) -> "FaultPlan":
        """Poison unit ``target`` with ``times`` transient exec errors."""
        return self.add(FaultSpec(kind="unit_error", target=target,
                                  times=times))
