"""Task Spawner + Launch Methods, realized as execution backends.

A backend owns the full EXECUTING phase of a unit: launch-method
overhead, the unit's bulk I/O (charged to *that backend's* storage —
Lustre for plain pilots, node-local disk for YARN/Spark, which is the
mechanism behind Figure 6), the modeled compute time, memory
reservation, and the eager execution of the unit's real Python payload.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.node import NodeDied
from repro.cluster.storage import MB
from repro.core.agent.app_master import ReusableAppMaster, run_unit_as_yarn_app
from repro.core.agent.scheduler import (
    ContinuousScheduler,
    SlotAllocation,
    YarnAgentScheduler,
)
from repro.core.description import AgentConfig, ComputeUnitDescription
from repro.sim.engine import Environment, SimulationError


#: Launch-method fixed overheads (seconds): process spawn + env setup.
LAUNCH_OVERHEAD = {
    "fork": 0.2,
    "mpiexec": 0.6,
    "aprun": 0.5,
    "docker": 1.5,          # container create/start
    "spark-submit": 3.0,
}

#: Container image size for the docker launch method (paper §V:
#: "container-based virtualization (based on Docker) is increasingly
#: used ... Support for these emerging infrastructures is being
#: added").  Pulled once per node, then cached.
DOCKER_IMAGE_BYTES = 400 * 1024 ** 2


class ExecutionError(RuntimeError):
    """A unit's execution failed on the backend."""


class ServiceContext:
    """What a long-lived *service* unit sees of its placement.

    Handed to :attr:`ComputeUnitDescription.service` callables once the
    backend has paid the normal launch path; the service generator then
    owns the unit's EXECUTING phase (e.g. a raptor master or worker
    parked on its node for the run's lifetime).
    """

    __slots__ = ("env", "node", "cores")

    def __init__(self, env: Environment, node, cores: int):
        self.env = env
        self.node = node
        self.cores = cores

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ServiceContext {self.node.name} x{self.cores}>"


def _run_payload(unit_desc: ComputeUnitDescription):
    """Execute the unit's real Python function (eagerly)."""
    if unit_desc.function is None:
        return None
    return unit_desc.function(*unit_desc.args, **unit_desc.kwargs)


def _compute_or_die(node, seconds: float):
    """Hold ``node`` for the compute phase; :class:`ExecutionError` if
    it is down or dies first (faults kill in-flight work too)."""
    if not node.alive:
        raise ExecutionError(f"node {node.name} is down")
    try:
        yield from node.hold(seconds)
    except NodeDied:
        raise ExecutionError(
            f"node {node.name} died during execution") from None


class ForkBackend:
    """Plain HPC execution: cores from the continuous scheduler, bulk
    I/O against the machine's **shared parallel filesystem** (Lustre).
    """

    name = "fork"

    def __init__(self, env: Environment, lrm, config: AgentConfig):
        self.env = env
        self.lrm = lrm
        self.config = config
        self.scheduler = ContinuousScheduler(
            env, lrm.nodes, policy=config.scheduler_policy)
        self.shared_fs = lrm.site.machine.shared_fs
        self._docker_image_cache: set = set()   # node names holding the image

    def schedule(self, unit_desc: ComputeUnitDescription):
        """Event yielding a SlotAllocation for the unit."""
        return self.scheduler.allocate(unit_desc.cores)

    def release(self, allocation: SlotAllocation) -> None:
        self.scheduler.release(allocation)

    def execute(self, unit_desc: ComputeUnitDescription,
                allocation: SlotAllocation, on_start=None, span=None):
        """Run a unit.  Generator returning the payload's result.

        ``on_start`` fires when the task process actually begins (after
        spawner/launch-method overhead) — the Compute-Unit startup
        marker of Figure 5's inset.  ``span`` is the unit's trace span;
        the task gets a child span covering launch through completion.
        """
        method = unit_desc.launch_method or (
            "mpiexec" if len(allocation.assignments) > 1 else "fork")
        if method not in LAUNCH_OVERHEAD:
            raise ExecutionError(f"unknown launch method {method!r}")
        tel = self.env.telemetry
        task_span = None
        if tel is not None:
            task_span = tel.tracer.begin(
                "task", cat="container", parent=span, method=method,
                node=allocation.primary_node.name)
        try:
            yield self.env.timeout(LAUNCH_OVERHEAD[method]
                                   + self.config.spawn_overhead_seconds)
            if method == "docker":
                # containers ship their environment inside the image:
                # pull once per node (cached), skip the Lustre
                # environment load
                image_node = allocation.primary_node
                if image_node.name not in self._docker_image_cache:
                    yield self.env.timeout(
                        self.lrm.site.machine.download_seconds(
                            DOCKER_IMAGE_BYTES))
                    yield image_node.local_disk.write(DOCKER_IMAGE_BYTES)
                    self._docker_image_cache.add(image_node.name)
            elif self.config.task_environment_bytes > 0:
                # interpreter + imports come off the shared filesystem —
                # heavily contended when a task wave starts together
                yield self.shared_fs.read(
                    self.config.task_environment_bytes)
            if on_start is not None:
                on_start()

            node = allocation.primary_node
            if not node.alive:
                raise ExecutionError(f"node {node.name} is down")
            memory = (unit_desc.memory_mb
                      or self.config.default_unit_memory_mb) * MB
            memory = min(memory, node.memory_bytes)
            yield node.memory.get(memory)
            closing = False
            try:
                if unit_desc.service is not None:
                    result = yield from unit_desc.service(ServiceContext(
                        self.env, node, allocation.total_cores))
                    return result
                if unit_desc.input_bytes > 0:
                    if unit_desc.input_tier == "memory":
                        yield node.memory_fs.read(unit_desc.input_bytes)
                    else:
                        yield self.shared_fs.read(unit_desc.input_bytes)
                if unit_desc.cpu_seconds > 0:
                    speedup = allocation.total_cores
                    yield from _compute_or_die(
                        node, node.compute_seconds(
                            unit_desc.cpu_seconds / speedup))
                result = _run_payload(unit_desc)
                if unit_desc.output_bytes > 0:
                    yield self.shared_fs.write(unit_desc.output_bytes)
                    self.shared_fs.delete(unit_desc.output_bytes)
            except GeneratorExit:
                closing = True
                raise
            finally:
                # A generator being closed may not suspend: release the
                # memory (the put fits, so it applies at once) and wait
                # on the event only on the normal and exception paths.
                released = node.memory.put(memory)
                if not closing:
                    yield released
        finally:
            if tel is not None:
                tel.tracer.end(task_span)
        return result

    def reap_dead_nodes(self):
        """Retire dead nodes from the core ledger; returns their names."""
        dead = [n for n in self.scheduler.nodes if not n.alive]
        for node in dead:
            self.scheduler.deactivate_node(node)
        return [n.name for n in dead]

    def teardown(self):
        if False:  # pragma: no cover
            yield None
        return


class YarnBackend:
    """YARN execution: units become YARN applications; bulk I/O against
    the container node's **local disk** (§IV-B: "for RADICAL-Pilot-YARN
    the local file system is used").
    """

    name = "yarn"

    def __init__(self, env: Environment, lrm, config: AgentConfig):
        if lrm.yarn is None:
            raise SimulationError("YARN LRM not initialized")
        self.env = env
        self.lrm = lrm
        self.config = config
        self.yarn = lrm.yarn
        self.machine = lrm.site.machine
        self.scheduler = YarnAgentScheduler(
            env, self.yarn.resource_manager)
        self._pool: Optional[ReusableAppMaster] = None
        if config.reuse_application_master:
            self._pool = ReusableAppMaster(env, self.yarn)
            env.process(self._pool.start(), name="rp-am-pool")

    def schedule(self, unit_desc: ComputeUnitDescription):
        memory_mb = (unit_desc.memory_mb
                     or self.config.default_unit_memory_mb)
        return self.scheduler.allocate(unit_desc.cores, memory_mb)

    def release(self, allocation: SlotAllocation) -> None:
        self.scheduler.release(allocation)

    def execute(self, unit_desc: ComputeUnitDescription,
                allocation: SlotAllocation, on_start=None, span=None):
        """Run a unit via the RP Application Master.  Generator.

        ``on_start`` fires inside the YARN container once the wrapper
        script hands control to the unit executable — so the startup
        metric includes the client JVM, the AM allocation and the task
        container launch (the two-phase overhead of Figure 5's inset).
        ``span`` is the unit's trace span; the YARN container becomes a
        child span on the same track.
        """
        memory_mb = (unit_desc.memory_mb
                     or self.config.default_unit_memory_mb)
        box = {}

        def container_payload(env, container):
            # The wrapper script: set up the RP environment, stage, run.
            tel = env.telemetry
            cspan = None
            if tel is not None:
                cspan = tel.tracer.begin(
                    "container", cat="container", parent=span,
                    container_id=container.container_id,
                    node=container.node_name)
            try:
                yield env.timeout(self.config.spawn_overhead_seconds)
                node = self.machine.node_by_name(container.node_name)
                if self.config.task_environment_bytes > 0:
                    # localized environment: read from the node's disk
                    yield node.local_disk.read(
                        self.config.task_environment_bytes)
                if on_start is not None:
                    on_start()
                if unit_desc.service is not None:
                    box["result"] = yield from unit_desc.service(
                        ServiceContext(env, node, unit_desc.cores))
                    return
                if unit_desc.input_bytes > 0:
                    tier = (node.memory_fs
                            if unit_desc.input_tier == "memory"
                            else node.local_disk)
                    yield tier.read(unit_desc.input_bytes)
                if unit_desc.cpu_seconds > 0:
                    yield env.timeout(node.compute_seconds(
                        unit_desc.cpu_seconds / unit_desc.cores))
                box["result"] = _run_payload(unit_desc)
                if unit_desc.output_bytes > 0:
                    yield node.local_disk.write(unit_desc.output_bytes)
                    node.local_disk.delete(unit_desc.output_bytes)
            finally:
                if tel is not None:
                    tel.tracer.end(cspan)

        if self._pool is not None:
            outcome = yield from self._pool.run_unit(
                unit_desc.cores, memory_mb, container_payload)
        else:
            outcome = yield from run_unit_as_yarn_app(
                self.env, self.yarn, unit_desc.name or "cu",
                unit_desc.cores, memory_mb, container_payload)
        if not outcome.ok:
            raise ExecutionError(
                f"YARN execution failed: {outcome.diagnostics}")
        return box.get("result")

    def reap_dead_nodes(self):
        """YARN owns its own liveness: the RM expires lost NMs."""
        return []

    def teardown(self):
        if self._pool is not None:
            yield from self._pool.shutdown()


class SparkBackend:
    """Spark execution: units run in executor task slots via
    ``spark-submit``; bulk I/O against the executor node's local disk.
    """

    name = "spark"

    def __init__(self, env: Environment, lrm, config: AgentConfig):
        if lrm.spark is None:
            raise SimulationError("Spark LRM not initialized")
        self.env = env
        self.lrm = lrm
        self.config = config
        self.spark = lrm.spark
        self.scheduler = ContinuousScheduler(
            env, lrm.nodes, policy=config.scheduler_policy)

    def schedule(self, unit_desc: ComputeUnitDescription):
        return self.scheduler.allocate(unit_desc.cores)

    def release(self, allocation: SlotAllocation) -> None:
        self.scheduler.release(allocation)

    def execute(self, unit_desc: ComputeUnitDescription,
                allocation: SlotAllocation, on_start=None, span=None):
        tel = self.env.telemetry
        task_span = None
        if tel is not None:
            task_span = tel.tracer.begin(
                "task", cat="container", parent=span,
                method="spark-submit", node=allocation.primary_node.name)
        try:
            yield self.env.timeout(LAUNCH_OVERHEAD["spark-submit"]
                                   + self.config.spawn_overhead_seconds)
            node = allocation.primary_node
            if not node.alive:
                raise ExecutionError(f"node {node.name} is down")
            if self.config.task_environment_bytes > 0:
                yield node.local_disk.read(
                    self.config.task_environment_bytes)
            if on_start is not None:
                on_start()
            if unit_desc.service is not None:
                result = yield from unit_desc.service(ServiceContext(
                    self.env, node, allocation.total_cores))
                return result
            if unit_desc.input_bytes > 0:
                tier = (node.memory_fs if unit_desc.input_tier == "memory"
                        else node.local_disk)
                yield tier.read(unit_desc.input_bytes)
            if unit_desc.cpu_seconds > 0:
                yield from _compute_or_die(
                    node, node.compute_seconds(
                        unit_desc.cpu_seconds / allocation.total_cores))
            result = _run_payload(unit_desc)
            if unit_desc.output_bytes > 0:
                yield node.local_disk.write(unit_desc.output_bytes)
                node.local_disk.delete(unit_desc.output_bytes)
        finally:
            if tel is not None:
                tel.tracer.end(task_span)
        return result

    def reap_dead_nodes(self):
        """Retire dead nodes from the core ledger; returns their names."""
        dead = [n for n in self.scheduler.nodes if not n.alive]
        for node in dead:
            self.scheduler.deactivate_node(node)
        return [n.name for n in dead]

    def teardown(self):
        if False:  # pragma: no cover
            yield None
        return


def make_backend(lrm, env: Environment, config: AgentConfig):
    """Pick the execution backend matching the LRM flavor."""
    if lrm.name in ("yarn", "yarn-connect"):
        return YarnBackend(env, lrm, config)
    if lrm.name == "spark":
        return SparkBackend(env, lrm, config)
    return ForkBackend(env, lrm, config)
