"""SimSanitizer: runtime invariant checking for the simulation stack.

simlint (:mod:`repro.analysis.simlint`) checks determinism hazards *by
construction*; this module checks the stack's accounting invariants
*in motion*, as one composable mechanism:

* each invariant is a checker method on :class:`SimSanitizer`
  (scheduler core-accounting, pipe byte conservation, YARN
  container/app-state tallies, HDFS block-replica consistency,
  monotone event-clock, no-leaked-processes at drain);
* instrumented components run their checker whenever
  ``env.sanitizer`` is installed — one attribute load and a branch
  when it is not, exactly like telemetry;
* one switch turns everything on: ``REPRO_SANITIZE=1`` in the
  environment (picked up by every :class:`~repro.sim.engine.Environment`
  at construction) or ``Session(sanitize=True)``;
* violations raise :class:`InvariantViolation` and, when telemetry is
  installed, are reported on the bus (``sanitizer``/``violation``) and
  counted (``sanitizer.violations``) before the raise.

The sanitizer only *reads* simulation state — installing it never
changes an experiment's results, which is asserted by the sweep
byte-identity tests.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional


class InvariantViolation(AssertionError):
    """A SimSanitizer invariant check failed."""


def sanitize_enabled(environ: Optional[Dict[str, str]] = None) -> bool:
    """Whether ``REPRO_SANITIZE`` asks for the sanitizer (truthy value)."""
    env = os.environ if environ is None else environ
    return env.get("REPRO_SANITIZE", "").strip().lower() in (
        "1", "true", "yes", "on")


class SimSanitizer:
    """One environment's invariant-checking hub.

    Install with :meth:`install` (idempotent); components find it via
    ``env.sanitizer`` the same way they find ``env.telemetry``.
    """

    def __init__(self, env):
        self.env = env
        #: checker name -> number of times it ran clean.
        self.checks_run: Dict[str, int] = {}
        self.violations = 0
        #: every process spawned while installed, for drain checks.
        self._spawned: List[object] = []

    # ------------------------------------------------------- installation
    @classmethod
    def install(cls, env) -> "SimSanitizer":
        """Attach (or return the existing) sanitizer on ``env``.

        Wraps ``env._schedule`` (monotone/finite event-clock check) and
        ``env.process`` (leak tracking).  The wrappers stay in place
        after :meth:`uninstall` but become pass-throughs, mirroring how
        telemetry hooks behave when disabled.
        """
        existing = getattr(env, "sanitizer", None)
        if existing is not None:
            return existing
        sanitizer = cls(env)
        env.sanitizer = sanitizer
        if not getattr(env, "_sanitizer_wrapped", False):
            cls._wrap_environment(env)
            env._sanitizer_wrapped = True
        return sanitizer

    @staticmethod
    def uninstall(env) -> None:
        """Detach the sanitizer (checks become no-ops)."""
        env.sanitizer = None

    @staticmethod
    def _wrap_environment(env) -> None:
        schedule = env._schedule
        spawn = env.process

        def checked_schedule(event, priority, delay=0.0):
            sanitizer = env.sanitizer
            if sanitizer is not None:
                sanitizer.check_clock(delay)
            schedule(event, priority, delay)

        def tracked_process(generator, name=None):
            proc = spawn(generator, name=name)
            sanitizer = env.sanitizer
            if sanitizer is not None:
                sanitizer._spawned.append(proc)
            return proc

        env._schedule = checked_schedule
        env.process = tracked_process

    # ---------------------------------------------------------- reporting
    def _passed(self, checker: str) -> None:
        self.checks_run[checker] = self.checks_run.get(checker, 0) + 1

    def fail(self, checker: str, message: str) -> None:
        """Record and raise one violation (telemetry first, then raise)."""
        self.violations += 1
        tel = getattr(self.env, "telemetry", None)
        if tel is not None:
            tel.counter("sanitizer.violations", checker=checker).inc()
            tel.emit("sanitizer", "violation", checker=checker,
                     detail=message)
        raise InvariantViolation(f"[{checker}] {message}")

    def report(self) -> Dict[str, object]:
        """Counts of checks run and violations raised so far."""
        return {"checks_run": dict(self.checks_run),
                "violations": self.violations}

    # ----------------------------------------------------------- checkers
    def check_clock(self, delay: float) -> None:
        """Monotone event-clock: every event lands at a finite time
        at or after ``now`` (negative/NaN/inf delays stall or reverse
        the virtual clock)."""
        if not (delay >= 0.0) or math.isinf(delay):
            self.fail("clock",
                      f"event scheduled with delay {delay!r} at "
                      f"t={self.env.now}; delays must be finite and "
                      ">= 0")
        self._passed("clock")

    def check_scheduler(self, scheduler) -> None:
        """Continuous-scheduler core accounting: the incremental
        free/total/queue-depth counters match a fresh re-summation."""
        free_map_total = sum(scheduler._free.values())
        if scheduler._free_cores != free_map_total:
            self.fail("scheduler",
                      f"free-core counter {scheduler._free_cores} != "
                      f"per-node map total {free_map_total}")
        node_total = sum(n.num_cores for n in scheduler.nodes)
        if scheduler._total_cores != node_total:
            self.fail("scheduler",
                      f"total_cores cache {scheduler._total_cores} "
                      f"diverged from the node set ({node_total})")
        if not 0 <= scheduler._free_cores <= scheduler._total_cores:
            self.fail("scheduler",
                      f"free cores {scheduler._free_cores} outside "
                      f"[0, {scheduler._total_cores}]")
        waiting = sum(1 for _, e in scheduler._queue if not e.triggered)
        if scheduler._waiting != waiting:
            self.fail("scheduler",
                      f"queue-depth counter {scheduler._waiting} != "
                      f"queue scan {waiting}")
        self._passed("scheduler")

    def check_yarn_agent_scheduler(self, scheduler) -> None:
        """YARN agent scheduler: in-flight reservations stay
        non-negative and the queue-depth counter matches the queue."""
        if scheduler._reserved_mb < 0 or scheduler._reserved_cores < 0:
            self.fail("yarn-agent-scheduler",
                      f"negative reservation ({scheduler._reserved_mb} "
                      f"MB, {scheduler._reserved_cores} vcores): "
                      "release() returned more than allocate() took")
        waiting = sum(1 for *_, e in scheduler._queue if not e.triggered)
        if scheduler._waiting != waiting:
            self.fail("yarn-agent-scheduler",
                      f"queue-depth counter {scheduler._waiting} != "
                      f"queue scan {waiting}")
        self._passed("yarn-agent-scheduler")

    def check_pipe(self, pipe) -> None:
        """Bandwidth-pipe byte conservation: the O(log n) virtual-clock
        credits agree with the shadow full-scan ledger, transfer for
        transfer."""
        if len(pipe._shadow) != len(pipe._heap):
            self.fail("pipe",
                      f"pipe {pipe.name!r}: shadow ledger holds "
                      f"{len(pipe._shadow)} transfers, heap "
                      f"{len(pipe._heap)}")
        for credit, tid, _ in pipe._heap:
            fast = credit - pipe._virtual
            slow = pipe._shadow.get(tid)
            if slow is None:
                self.fail("pipe",
                          f"pipe {pipe.name!r}: transfer {tid} missing "
                          "from the shadow ledger")
            if abs(fast - slow) > 1e-6 * max(1.0, abs(credit)):
                self.fail("pipe",
                          f"pipe {pipe.name!r}: transfer {tid} credit "
                          f"remainder {fast} diverged from full-scan "
                          f"ledger {slow}")
        self._passed("pipe")

    def check_resource_manager(self, rm) -> None:
        """YARN RM state tallies: incremental running/pending counters,
        the active-app index, the runnable index with its
        pending-request count and per-queue usage, per-app usage vs
        live containers, and per-NM used capacity vs its container
        set."""
        running = pending = 0
        for app in rm.apps.values():
            state = app.state.name
            if state == "RUNNING":
                running += 1
            elif state in ("SUBMITTED", "ACCEPTED"):
                pending += 1
        if rm._apps_running != running or rm._apps_pending != pending:
            self.fail("yarn-rm",
                      f"app-state tallies (running={rm._apps_running}, "
                      f"pending={rm._apps_pending}) != scan "
                      f"(running={running}, pending={pending})")
        active = {app_id for app_id, app in rm.apps.items()
                  if not app.state.is_final}
        if set(rm._active_apps) != active:
            self.fail("yarn-rm",
                      f"active-app index {sorted(rm._active_apps)} != "
                      f"non-final scan {sorted(active)}")
        # The incremental scheduling state vs the full scans it replaced.
        runnable = sorted((a for a in rm._active_apps.values() if a.pending),
                          key=lambda a: a.seq)
        if rm._runnable != runnable:
            self.fail("yarn-rm",
                      f"runnable index {[a.app_id for a in rm._runnable]} "
                      "!= active apps with pending asks, by seq "
                      f"{[a.app_id for a in runnable]}")
        backlog = sum(len(a.pending) for a in runnable)
        if rm._pending_requests != backlog:
            self.fail("yarn-rm",
                      f"pending-request count {rm._pending_requests} != "
                      f"scan {backlog}")
        queue_used = dict.fromkeys(rm._queue_used_mb, 0)
        for app in rm._active_apps.values():
            queue_used[app.queue] = (queue_used.get(app.queue, 0)
                                     + app.usage.memory_mb)
        for queue, scanned in sorted(queue_used.items()):
            if rm._queue_used_mb.get(queue, 0) != scanned:
                self.fail("yarn-rm",
                          f"per-queue usage tally for {queue!r} "
                          f"{rm._queue_used_mb.get(queue, 0)} MB != "
                          f"active-app scan {scanned} MB")
        for app in rm.apps.values():
            mem = sum(c.resource.memory_mb
                      for c in app.live_containers.values())
            vcores = sum(c.resource.vcores
                         for c in app.live_containers.values())
            if app.usage.memory_mb != mem or app.usage.vcores != vcores:
                self.fail("yarn-rm",
                          f"{app.app_id} usage ({app.usage.memory_mb} MB, "
                          f"{app.usage.vcores} vcores) != live containers "
                          f"({mem} MB, {vcores} vcores)")
        for nm in rm.node_managers.values():
            mem = sum(c.resource.memory_mb for c in nm.containers.values())
            vcores = sum(c.resource.vcores for c in nm.containers.values())
            if nm.used.memory_mb != mem or nm.used.vcores != vcores:
                self.fail("yarn-rm",
                          f"NM {nm.name} used ({nm.used.memory_mb} MB, "
                          f"{nm.used.vcores} vcores) != container set "
                          f"({mem} MB, {vcores} vcores)")
            if (nm.used.memory_mb > nm.capacity.memory_mb
                    or nm.used.vcores > nm.capacity.vcores):
                self.fail("yarn-rm",
                          f"NM {nm.name} over-allocated: used "
                          f"{nm.used.memory_mb} MB/{nm.used.vcores} vc "
                          f"of {nm.capacity.memory_mb} MB/"
                          f"{nm.capacity.vcores} vc")
        # The RM's O(1) live-capacity aggregates vs a full NM rescan:
        # every alive-flip and reserve/release must have been folded in.
        live = {name for name, nm in rm.node_managers.items() if nm.alive}
        if rm._counted != live:
            self.fail("yarn-rm",
                      f"live-NM index {sorted(rm._counted)} != alive scan "
                      f"{sorted(live)}")
        total_mb = sum(rm.node_managers[n].capacity.memory_mb for n in live)
        total_vc = sum(rm.node_managers[n].capacity.vcores for n in live)
        used_mb = sum(rm.node_managers[n].used.memory_mb for n in live)
        used_vc = sum(rm.node_managers[n].used.vcores for n in live)
        if (rm._agg_total_mb, rm._agg_total_vc,
                rm._agg_used_mb, rm._agg_used_vc) != (
                total_mb, total_vc, used_mb, used_vc):
            self.fail("yarn-rm",
                      f"capacity aggregates (total {rm._agg_total_mb} MB/"
                      f"{rm._agg_total_vc} vc, used {rm._agg_used_mb} MB/"
                      f"{rm._agg_used_vc} vc) != live-NM scan (total "
                      f"{total_mb} MB/{total_vc} vc, used {used_mb} MB/"
                      f"{used_vc} vc)")
        self._passed("yarn-rm")

    def check_namenode(self, namenode) -> None:
        """HDFS block-replica consistency: every mapped replica names a
        registered DataNode exactly once, and live DataNodes actually
        hold the blocks mapped to them."""
        for block_id, node_names in namenode.block_map.items():
            if len(node_names) != len(set(node_names)):
                self.fail("hdfs",
                          f"block {block_id} lists duplicate replica "
                          f"nodes {node_names}")
            for name in node_names:
                dn = namenode.datanodes.get(name)
                if dn is None:
                    self.fail("hdfs",
                              f"block {block_id} mapped to unregistered "
                              f"DataNode {name!r}")
                if dn.alive and not dn.holds(block_id):
                    self.fail("hdfs",
                              f"block {block_id} mapped to live DataNode "
                              f"{name!r} which does not hold it")
        self._passed("hdfs")

    def assert_drained(self) -> None:
        """End-of-run check: the event queue is empty and no spawned
        process is still alive (a live process after drain is blocked
        on an event nobody will ever fire — a leak)."""
        if self.env._queue:
            self.fail("drain",
                      f"event queue still holds {len(self.env._queue)} "
                      f"event(s) at t={self.env.now}")
        leaked = [p for p in self._spawned if p.is_alive]
        if leaked:
            names = ", ".join(getattr(p, "name", "?") for p in leaked[:10])
            self.fail("drain",
                      f"{len(leaked)} process(es) still alive after "
                      f"drain: {names}")
        self._passed("drain")
