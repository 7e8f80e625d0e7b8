"""RaptorWorker: one long-lived task-serving Compute-Unit.

A worker is born inside a service Compute-Unit (see
:meth:`repro.raptor.overlay.RaptorOverlay` and the ``service`` hook on
:class:`~repro.core.description.ComputeUnitDescription`): the CU pays
the normal allocation path **once**, then the worker parks on its node
and serves a stream of function tasks dispatched by the master over the
interconnect.  Each restart of the worker CU (e.g. under a
:class:`~repro.faults.spec.RestartPolicy` after a node crash) creates a
*fresh* worker that re-registers with the master.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Set

from repro.cluster.node import Node, NodeDied
from repro.sim.engine import Environment, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.raptor.task import RaptorConfig


class WorkerLost(RuntimeError):
    """The worker's node died while a task was dispatched to it."""


class RaptorWorker:
    """One registered worker: a node, a core budget, and running tasks."""

    def __init__(self, env: Environment, uid: str, node: "Node",
                 cores: int, config: "RaptorConfig"):
        self.env = env
        self.uid = uid
        self.node = node
        self.cores = cores
        self.config = config
        self.free_cores = cores
        #: Task ids currently dispatched to this worker.
        self.running: Set[int] = set()
        self.tasks_served = 0
        self.lost = False
        #: Registration sequence number assigned by the master; orders
        #: the dispatch free-list identically to the registration scan.
        self.reg_index = -1
        #: True once the master dropped this worker (lost or retired);
        #: stale free-list entries for it are discarded lazily.
        self.detached = False
        #: True while an entry for this worker sits in the master's
        #: free-worker heap (prevents duplicate entries).
        self.queued = False
        self._shutdown = Event(env)

    @property
    def alive(self) -> bool:
        return not self.lost and self.node.alive

    # ------------------------------------------------------------ execution
    def execute(self, description, cores: int):
        """Run one task on this worker.  Generator returning the payload
        result; raises :class:`WorkerLost` if the node dies mid-task.

        The cost model is the whole point of the overlay: a fixed
        dispatch overhead plus the modeled compute — no batch-system or
        YARN allocation, no spawner, no environment load.
        """
        node = self.node
        if not node.alive:
            raise WorkerLost(f"worker {self.uid}: node {node.name} is down")
        overhead = self.config.dispatch_overhead_seconds
        phase = "in dispatch"
        try:
            if overhead > 0:
                yield from node.hold(overhead)
            phase = "mid-task"
            if description.cpu_seconds > 0:
                yield from node.hold(node.compute_seconds(
                    description.cpu_seconds / cores))
        except NodeDied:
            raise WorkerLost(f"worker {self.uid}: node {node.name} "
                             f"died {phase}") from None
        if description.function is None:
            return None
        return description.function(*description.args,
                                    **description.kwargs)

    # ------------------------------------------------------------ lifecycle
    def shutdown(self) -> None:
        """Master-ordered shutdown; the hosting service CU returns."""
        if not self._shutdown.triggered:
            self._shutdown.succeed()

    def shutdown_event(self) -> Event:
        return self._shutdown

    def mark_lost(self) -> None:
        self.lost = True


def worker_service(overlay, ctx):
    """The service generator a worker Compute-Unit runs.

    Creates a fresh :class:`RaptorWorker` bound to the CU's node,
    registers it with the overlay's master (one message over the
    fabric), then parks until shutdown or node death.  Node death
    raises, failing the CU — composing with the Unit-Manager's
    :class:`~repro.faults.spec.RestartPolicy`, whose resubmission runs
    this service again and registers a *new* worker.
    """
    from repro.core.agent.executor import ExecutionError

    master = overlay.master
    env = ctx.env
    if master.closed:
        # The overlay shut down while this CU was in the queue (e.g. a
        # restart attempt racing close()): nothing to serve.
        return "raptor-worker-stale"
    worker = RaptorWorker(
        env, overlay.session.next_uid("rworker"), ctx.node, ctx.cores,
        overlay.config)
    # Wait for the master to be placed, then register over the fabric.
    yield master.ready_event()
    if master.closed:
        return "raptor-worker-stale"
    yield overlay.network.send(ctx.node.name, master.node.name,
                               overlay.config.register_wire_bytes)
    if not ctx.node.alive:
        raise ExecutionError(
            f"worker node {ctx.node.name} died during registration")
    master.register_worker(worker)
    try:
        yield env.any_of([worker.shutdown_event(),
                          ctx.node.failure_event()])
    finally:
        if not ctx.node.alive:
            master.worker_lost(worker)
    if not ctx.node.alive:
        raise ExecutionError(
            f"worker {worker.uid}: node {ctx.node.name} died")
    master.worker_retired(worker)
    return {"worker": worker.uid, "tasks_served": worker.tasks_served}
