"""NodeManager: per-node container execution and capacity accounting."""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.cluster.node import Node
from repro.sim.engine import Environment, Interrupt, Process, SimulationError
from repro.yarn.config import YarnConfig
from repro.yarn.records import (
    ZERO_RESOURCE,
    Container,
    ContainerState,
    YarnResource,
)


class NodeManager:
    """Runs containers on one node, within an advertised capacity.

    The NM's heartbeat loop lives in the ResourceManager (which owns
    the scheduling reaction); here we keep capacity arithmetic, the
    container launch path (with JVM spin-up cost) and kill/preempt.
    """

    def __init__(self, env: Environment, node: Node, config: YarnConfig):
        self.env = env
        self.node = node
        self.config = config
        self.capacity = YarnResource(
            memory_mb=config.nm_memory_mb(node.memory_bytes),
            vcores=config.nm_vcores(node.num_cores))
        self.used = ZERO_RESOURCE
        self.containers: Dict[str, Container] = {}
        #: The launch process of every container not yet finished.
        self._procs: Dict[str, Process] = {}
        self.running = False
        #: When :meth:`fail` hit (MTTR base for the RM's loss handling).
        self.failed_at: Optional[float] = None
        #: The owning ResourceManager, once registered; the NM reports
        #: liveness flips and capacity deltas so the RM's cluster-wide
        #: tallies stay O(1) instead of rescanning every NM.
        self._rm = None

    def _attach_rm(self, rm) -> None:
        self._rm = rm
        self.node.watch_liveness(lambda _node: rm._nm_liveness_changed(self))

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def alive(self) -> bool:
        return self.running and self.node.alive

    @property
    def available(self) -> YarnResource:
        return self.capacity.minus(self.used)

    def start(self):
        """Daemon startup.  Generator."""
        yield self.env.timeout(self.config.nm_startup_seconds)
        self.running = True
        if self._rm is not None:
            self._rm._nm_liveness_changed(self)

    def stop(self) -> None:
        for container in list(self.containers.values()):
            if not container.state.is_final:
                self.kill_container(container.container_id,
                                    ContainerState.KILLED, "NM shutdown")
        self.running = False
        if self._rm is not None:
            self._rm._nm_liveness_changed(self)

    # ----------------------------------------------------------- capacity
    def can_fit(self, resource: YarnResource) -> bool:
        return self.alive and resource.fits_in(self.available)

    def reserve(self, container: Container) -> None:
        """Book capacity for an allocated container."""
        if not container.resource.fits_in(self.available):
            raise SimulationError(
                f"NM {self.name} over-allocation: {container.resource} "
                f"does not fit in {self.available}")
        self.used = self.used.plus(container.resource)
        self.containers[container.container_id] = container
        if self._rm is not None:
            self._rm._nm_used_changed(self, container.resource.memory_mb,
                                      container.resource.vcores)

    def _release(self, container: Container) -> None:
        if container.container_id in self.containers:
            self.used = self.used.minus(container.resource)
            del self.containers[container.container_id]
            if self._rm is not None:
                self._rm._nm_used_changed(
                    self, -container.resource.memory_mb,
                    -container.resource.vcores)

    # ------------------------------------------------------------- launch
    def start_container(self, container: Container,
                        payload: Callable[..., object],
                        on_complete: Optional[Callable[[Container], None]]
                        = None) -> Process:
        """Launch a payload inside an allocated container.

        Pays the localization + JVM spin-up cost, then runs
        ``payload(env, container)`` inline: the container is one
        process, so a kill interrupts the payload itself and nothing of
        it outlives the container.  Returns that process; it ends when
        the container reaches a final state, and its value is the
        container.
        """
        cid = container.container_id
        if cid not in self.containers:
            raise SimulationError(
                f"container {cid} not allocated on {self.name}")
        if container.state is not ContainerState.ALLOCATED:
            raise SimulationError(
                f"container {cid} is {container.state.value}, cannot launch")
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("yarn", "container_start", container_id=cid,
                     node=self.name, app=container.app_id)

        def _runner():
            try:
                yield self.env.timeout(self.config.container_launch_seconds)
            except Interrupt:
                # Killed/released during localization: state was already
                # finalized by kill_container.
                return _finished(None)
            container.state = ContainerState.RUNNING
            try:
                result = yield from payload(self.env, container)
            except Interrupt as intr:
                outcome = ContainerState.KILLED, None, str(intr.cause)
            except Exception as exc:
                outcome = ContainerState.FAILED, 1, repr(exc)
            else:
                outcome = ContainerState.COMPLETED, 0, ""
            # A kill already set the final state: a payload that swallowed
            # its Interrupt and returned does not overwrite it.
            if not container.state.is_final:
                (container.state, container.exit_code,
                 container.diagnostics) = outcome
                if container.state is ContainerState.COMPLETED:
                    container.result = result
            self._release(container)
            return _finished(on_complete)

        def _finished(notify) -> Container:
            del self._procs[cid]
            if tel is not None:
                tel.emit("yarn", "container_finished", container_id=cid,
                         node=self.name, app=container.app_id,
                         state=container.state.value)
            if notify is not None:
                notify(container)
            return container

        proc = self.env.process(_runner(), name=f"launch-{cid}")
        self._procs[cid] = proc
        return proc

    def kill_container(self, container_id: str,
                       final_state: ContainerState = ContainerState.KILLED,
                       diagnostics: str = "") -> None:
        """Kill (or preempt) a container immediately."""
        container = self.containers.get(container_id)
        if container is None or container.state.is_final:
            return
        container.state = final_state
        container.diagnostics = diagnostics
        proc = self._procs.get(container_id)
        if proc is not None:
            proc.interrupt(cause=diagnostics or final_state.value)
        self._release(container)

    def fail(self) -> None:
        """Crash the NM: all containers die with it.

        Killing each container releases its reservation back into the
        NM ledger (``used``/``containers``), so the RM's capacity
        arithmetic — and the sanitizer's per-NM checks — stay exact
        across the failure.
        """
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("yarn", "node_failed", node=self.name,
                     containers=len(self.containers))
            tel.counter("yarn.nm.failures").inc()
        for container in list(self.containers.values()):
            self.kill_container(container.container_id,
                                ContainerState.KILLED, "NM lost")
        self.running = False
        self.failed_at = self.env.now
        if self._rm is not None:
            self._rm._nm_liveness_changed(self)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<NodeManager {self.name} used={self.used.memory_mb}MB/"
                f"{self.used.vcores}vc of {self.capacity.memory_mb}MB/"
                f"{self.capacity.vcores}vc>")
