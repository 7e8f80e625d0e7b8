"""The RADICAL-Pilot YARN Application Master (paper Figure 4).

Every Compute-Unit submitted to YARN becomes a YARN application: the
Task Spawner runs ``yarn jar RadicalYarnApp`` (client JVM), YARN
allocates the AM container, the AM registers and requests one task
container sized from the Compute-Unit Description, and a wrapper
script inside that container sets up the RP environment, stages files
and runs the executable.  This two-step allocation is the dominant
source of the Compute-Unit startup overhead in Figure 5's inset.

The paper names AM/container re-use as the planned optimization; we
implement it (:class:`ReusableAppMaster`) and quantify the saving in
ablation A3.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.sim.engine import Environment, Event
from repro.yarn.cluster import YarnCluster
from repro.yarn.records import AppSpec, ApplicationState, YarnResource


class UnitOutcome:
    """What the YARN execution path reports back to the Task Spawner."""

    def __init__(self, ok: bool, diagnostics: str = ""):
        self.ok = ok
        self.diagnostics = diagnostics


def run_unit_as_yarn_app(env: Environment, yarn: YarnCluster,
                         unit_uid: str, cores: int, memory_mb: int,
                         container_payload: Callable[..., object]):
    """One-shot path: one YARN application per Compute-Unit.  Generator.

    Returns a :class:`UnitOutcome`.

    When the cluster's :class:`~repro.yarn.config.YarnConfig` sets
    ``am_max_attempts`` > 1 the AM retries a failed/killed task
    container with capped exponential backoff (YARN's re-attempt
    semantics), requesting a fresh container each time — the recovery
    path that absorbs container kills and node loss without failing
    the Compute-Unit.  The default of 1 keeps the seed's
    fail-immediately behaviour.
    """
    config = yarn.config
    max_attempts = max(1, config.am_max_attempts)

    def rp_app_master(ctx):
        attempt = 0
        container = None
        while attempt < max_attempts:
            attempt += 1
            if attempt > 1:
                delay = min(
                    config.am_retry_backoff
                    * config.am_retry_backoff_factor ** (attempt - 2),
                    config.am_retry_backoff_cap)
                tel = env.telemetry
                if tel is not None:
                    tel.emit("yarn", "container_reattempt", unit=unit_uid,
                             attempt=attempt, delay=delay,
                             diagnostics=container.diagnostics)
                    tel.counter("yarn.am.reattempts").inc()
                yield env.timeout(delay)
            ctx.request_containers(1, YarnResource(memory_mb, cores))
            containers = yield from ctx.wait_for_containers(1)
            done = ctx.start_container(containers[0], container_payload)
            container = yield done
            if container.state.value == "completed":
                ctx.finish("SUCCEEDED")
                return
        ctx.finish("FAILED", diagnostics=container.diagnostics)

    client = yarn.client()
    app = yield from client.submit(AppSpec(
        name=f"RadicalYarnApp-{unit_uid}",
        am_resource=YarnResource(512, 1),
        am_program=rp_app_master, app_type="RADICAL-PILOT"))
    report = yield from client.wait_for_completion(app)
    return UnitOutcome(
        ok=report.state is ApplicationState.FINISHED,
        diagnostics=report.tracking_diagnostics)


class ReusableAppMaster:
    """AM re-use: one long-lived YARN application serving many units.

    The agent submits a single RadicalYarnApp whose AM loops over a
    work queue; each unit only pays the container request + launch —
    the client JVM and AM allocation are amortized across units.
    """

    def __init__(self, env: Environment, yarn: YarnCluster):
        self.env = env
        self.yarn = yarn
        self._queue: deque = deque()
        self._shutdown = False
        self._app = None
        self._started = Event(env)

    def start(self):
        """Submit the persistent AM application.  Generator."""
        pool = self

        def persistent_am(ctx):
            # Allocator loop: every AM heartbeat, turn queued work into
            # container requests and start payloads in whatever YARN
            # granted.  Units overlap freely — no per-unit round-trips
            # are serialized, which is the whole point of AM re-use.
            pending: deque = deque()    # (payload, done) awaiting grants
            while True:
                while pool._queue:
                    cores, memory_mb, payload, done = pool._queue.popleft()
                    ctx.request_containers(
                        1, YarnResource(memory_mb, cores))
                    pending.append((payload, done))
                if pool._shutdown and not pending:
                    break
                granted, _ = yield from ctx.allocate()
                for container in granted:
                    if not pending:
                        ctx.release_container(container)
                        continue
                    payload, done = pending.popleft()
                    finished = ctx.start_container(container, payload)

                    def _complete(event, _done=done):
                        c = event.value
                        _done.succeed(UnitOutcome(
                            ok=c.state.value == "completed",
                            diagnostics=c.diagnostics))

                    finished.callbacks.append(_complete)
            ctx.finish("SUCCEEDED")

        client = self.yarn.client()
        self._app = yield from client.submit(AppSpec(
            name="RadicalYarnApp-pool", am_resource=YarnResource(512, 1),
            am_program=persistent_am, app_type="RADICAL-PILOT"))
        self._started.succeed()

    def run_unit(self, cores: int, memory_mb: int,
                 container_payload: Callable[..., object]):
        """Run one unit through the pooled AM.  Generator -> UnitOutcome.

        Blocks until the pool application has been submitted (units can
        arrive while the persistent AM is still launching).
        """
        if not self._started.processed:
            yield self._started
        done = Event(self.env)
        self._queue.append((cores, memory_mb, container_payload, done))
        outcome = yield done
        return outcome

    def shutdown(self):
        """Drain and stop the persistent AM.  Generator."""
        self._shutdown = True
        if not self._started.processed:
            yield self._started
        if self._app is not None:
            yield self._app.finished
