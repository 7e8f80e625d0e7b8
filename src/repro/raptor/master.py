"""RaptorMaster: the scheduling heart of the task overlay.

One master runs as a long-lived service Compute-Unit — allocated once
through the normal AM/scheduler path — and then multiplexes a stream of
function tasks over its registered workers:

* tasks enter a FIFO queue (client batches arrive after the modeled
  submission latency);
* dispatch places each task on the first worker, in registration
  order, with enough free cores (a lazy free-worker heap);
* the task message streams master -> worker over the interconnect, the
  result envelope streams back, the task's future resolves, and the
  dispatch process carries on with the next task placed on that core;
* a worker lost to a node crash gets its in-flight tasks re-dispatched
  (up to ``task_retries`` per task) on surviving workers — composing
  with the Unit-Manager restart policy that brings replacement worker
  CUs back.

Everything the master does is a deterministic function of the event
order, so overlay runs are bitwise-reproducible.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro.analysis.sanitizer import InvariantViolation
from repro.raptor.task import TaskResult
from repro.raptor.worker import RaptorWorker, WorkerLost
from repro.sim.engine import Environment, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node


class _Task:
    """Master-side bookkeeping for one submitted task."""

    __slots__ = ("tid", "description", "future", "attempts",
                 "submitted_at", "started_at", "settled")

    def __init__(self, tid: int, description, future,
                 submitted_at: float):
        self.tid = tid
        self.description = description
        self.future = future            # TaskFuture or None (fire-and-count)
        self.attempts = 0
        self.submitted_at = submitted_at
        self.started_at: Optional[float] = None
        self.settled = False


class RaptorMaster:
    """Master-side state machine of one overlay."""

    def __init__(self, overlay, uid: str):
        self.overlay = overlay
        self.env: Environment = overlay.env
        self.uid = uid
        self.config = overlay.config
        self.node: Optional["Node"] = None
        self.workers: List[RaptorWorker] = []
        self._registered_total = 0
        #: Lazy min-heap of registration indices of workers that may
        #: have free cores.  Dispatch pops in registration order, so the
        #: pick is identical to the old full scan of ``self.workers`` —
        #: but a saturated overlay pays O(1) per failed pick instead of
        #: O(workers), the difference between 27k and 2.6k tasks/s wall
        #: at 2k workers.  Stale entries (worker drained, lost or
        #: retired) are dropped when popped.
        self._free_heap: List[int] = []
        self._by_index: Dict[int, RaptorWorker] = {}
        self._pending: Deque[_Task] = deque()
        self._running: Dict[int, _Task] = {}
        #: Tasks submitted by the client but still riding the modeled
        #: submission latency — the drain loop must wait for them too.
        self._in_transit: Dict[int, _Task] = {}
        #: Result envelopes in completion order (``retain_results``).
        self.results: List[TaskResult] = []
        self.tasks_submitted = 0
        self.tasks_completed = 0
        self.tasks_failed = 0
        self.tasks_retried = 0
        self.workers_lost = 0
        self.closed = False
        self.failed = False
        self._close_requested = Event(self.env)
        self._ready = Event(self.env)
        self._drained: Optional[Event] = None
        self._idle_waiters: List[Event] = []
        self._worker_count_waiters: List[tuple] = []
        self._span = None

    def snapshot_state(self) -> dict:
        """Checkpoint fingerprint: queue depths + task counters.

        In-flight task identity is carried by the deterministic tid
        sets; the payloads themselves replay from the scenario.
        """
        return {"kind": "raptor_master", "uid": self.uid,
                "registered_total": self._registered_total,
                "workers": len(self.workers),
                "pending": [t.tid for t in self._pending],
                "running": sorted(self._running),
                "in_transit": sorted(self._in_transit),
                "tasks_submitted": self.tasks_submitted,
                "tasks_completed": self.tasks_completed,
                "tasks_failed": self.tasks_failed,
                "tasks_retried": self.tasks_retried,
                "workers_lost": self.workers_lost,
                "closed": self.closed, "failed": self.failed}

    # ------------------------------------------------------------- readiness
    @property
    def ready(self) -> bool:
        return self.node is not None and not self.closed

    def ready_event(self) -> Event:
        """Fires once the master service is placed (or terminally dead)."""
        return self._ready

    def workers_event(self, count: int) -> Event:
        """Fires when ``count`` worker registrations have happened."""
        event = Event(self.env)
        if self._registered_total >= count:
            event.succeed(self._registered_total)
        else:
            self._worker_count_waiters.append((count, event))
        return event

    # ------------------------------------------------------------- service
    def service(self, ctx):
        """The service generator the master Compute-Unit runs."""
        tel = self.env.telemetry
        self.node = ctx.node
        if tel is not None:
            self._span = tel.tracer.begin(
                self.uid, cat="raptor", track=self.uid,
                node=ctx.node.name)
            tel.emit("raptor", "master_ready", master=self.uid,
                     node=ctx.node.name)
        if not self._ready.triggered:
            self._ready.succeed(self)
        self._pump()
        try:
            yield self.env.any_of([self._close_requested,
                                   ctx.node.failure_event()])
            if not ctx.node.alive:
                self._fail(f"master node {ctx.node.name} died")
                from repro.core.agent.executor import ExecutionError
                raise ExecutionError(
                    f"raptor master {self.uid}: node {ctx.node.name} died")
            if self.overlay.drain_on_close:
                while self._pending or self._running or self._in_transit:
                    drained = self._drained = Event(self.env)
                    yield self.env.any_of([drained,
                                           ctx.node.failure_event()])
                    if not ctx.node.alive:
                        self._fail(
                            f"master node {ctx.node.name} died in drain")
                        from repro.core.agent.executor import ExecutionError
                        raise ExecutionError(
                            f"raptor master {self.uid}: node died in drain")
            self.closed = True
            # Unresolved tasks on a no-drain close fail deterministically.
            self._fail_outstanding("overlay closed")
            for worker in list(self.workers):
                yield self.overlay.network.send(
                    ctx.node.name, worker.node.name,
                    self.config.register_wire_bytes)
                worker.shutdown()
        finally:
            if tel is not None:
                tel.tracer.end(self._span,
                               tasks_completed=self.tasks_completed,
                               tasks_failed=self.tasks_failed,
                               workers_lost=self.workers_lost)
        return {"master": self.uid,
                "tasks_completed": self.tasks_completed,
                "tasks_failed": self.tasks_failed}

    def request_close(self) -> None:
        if not self._close_requested.triggered:
            self._close_requested.succeed()

    def _fail(self, reason: str) -> None:
        """Master death: every unresolved task fails, the overlay is done."""
        self.failed = True
        self.closed = True
        self._fail_outstanding(reason)
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("raptor", "master_failed", master=self.uid,
                     reason=reason)

    def _fail_outstanding(self, reason: str) -> None:
        outstanding = (list(self._running.values()) + list(self._pending)
                       + list(self._in_transit.values()))
        self._running.clear()
        self._pending.clear()
        self._in_transit.clear()
        for task in outstanding:
            self._finish(task, TaskResult(
                tid=task.tid, ok=False, error=reason,
                attempts=task.attempts,
                submitted_at=task.submitted_at,
                started_at=task.started_at,
                finished_at=self.env.now))

    # ------------------------------------------------------------- workers
    def register_worker(self, worker: RaptorWorker) -> None:
        if self.closed:
            worker.shutdown()
            return
        self.workers.append(worker)
        worker.reg_index = self._registered_total
        self._by_index[worker.reg_index] = worker
        worker.queued = True
        heappush(self._free_heap, worker.reg_index)
        self._registered_total += 1
        still_waiting = []
        for count, event in self._worker_count_waiters:
            if self._registered_total >= count:
                event.succeed(self._registered_total)
            else:
                still_waiting.append((count, event))
        self._worker_count_waiters = still_waiting
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("raptor", "worker_registered", master=self.uid,
                     worker=worker.uid, node=worker.node.name,
                     cores=worker.cores)
            tel.counter("raptor.workers_registered").inc()
        self._pump()

    def worker_lost(self, worker: RaptorWorker) -> None:
        """A worker's node died: drop it from the rotation.

        Its in-flight tasks are requeued by the dispatch processes
        running them, whose node holds raise on the same node death —
        this hook only handles membership and telemetry.
        """
        if worker.lost:
            return
        worker.mark_lost()
        worker.detached = True
        if worker in self.workers:
            self.workers.remove(worker)
        self.workers_lost += 1
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("raptor", "worker_lost", master=self.uid,
                     worker=worker.uid, node=worker.node.name,
                     in_flight=len(worker.running))
            tel.counter("raptor.workers_lost").inc()

    def worker_retired(self, worker: RaptorWorker) -> None:
        """Clean shutdown: the worker CU is completing normally."""
        worker.detached = True
        if worker in self.workers:
            self.workers.remove(worker)

    # ------------------------------------------------------------- intake
    def submit_batch(self, batch: List[_Task], latency: float) -> None:
        """A client hands over a batch; it lands on the queue after the
        modeled submission latency.  The master knows about in-transit
        tasks immediately, so a ``close(drain=True)`` issued right after
        submission still drains them."""
        self.tasks_submitted += len(batch)
        tel = self.env.telemetry
        if tel is not None:
            tel.counter("raptor.tasks_submitted").inc(len(batch))
        if self.closed:
            for task in batch:
                self._finish(task, TaskResult(
                    tid=task.tid, ok=False, error="overlay closed",
                    attempts=0, submitted_at=task.submitted_at,
                    finished_at=self.env.now))
            return
        for task in batch:
            self._in_transit[task.tid] = task
        if latency > 0:
            delivery = self.env.timeout(latency)
            delivery.callbacks.append(lambda _ev: self.enqueue(batch))
        else:
            self.enqueue(batch)

    def enqueue(self, tasks: List[_Task]) -> None:
        """A client batch arrives (after the modeled submission latency)."""
        for task in tasks:
            self._in_transit.pop(task.tid, None)
        # Tasks force-settled while in transit (master death, no-drain
        # close) are already resolved; deliver only the live ones.
        live = [task for task in tasks if not task.settled]
        if not live:
            return
        if self.closed:
            # The overlay closed while the batch was in flight.
            for task in live:
                self._finish(task, TaskResult(
                    tid=task.tid, ok=False, error="overlay closed",
                    attempts=0, submitted_at=task.submitted_at,
                    finished_at=self.env.now))
            return
        self._pending.extend(live)
        self._pump()

    def make_task(self, tid: int, description, future) -> _Task:
        return _Task(tid, description, future, self.env.now)

    # ------------------------------------------------------------- dispatch
    def _pump(self, own: Optional[RaptorWorker] = None) -> Optional[_Task]:
        """Place queued tasks on free worker cores (registration order).

        Each placement spawns a dispatch process, except that a *first*
        placement on ``own`` (whose core the calling dispatch process
        just freed) is returned for the caller to run inline.
        """
        if self.node is None or self.closed:
            return
        pending = self._pending
        inline = None
        while pending:
            task = pending[0]
            worker = self._pick_worker(task.description.cores)
            if worker is None:
                break
            pending.popleft()
            worker.free_cores -= min(task.description.cores, worker.cores)
            if worker.free_cores > 0 and not worker.queued:
                worker.queued = True
                heappush(self._free_heap, worker.reg_index)
            worker.running.add(task.tid)
            self._running[task.tid] = task
            if worker is own:
                inline = task
            else:
                self.env.process(self._run_task(task, worker),
                                 name=f"{self.uid}-task-{task.tid}")
            own = None  # only the first placement may run inline
        return inline

    def _pick_worker(self, cores: int) -> Optional[RaptorWorker]:
        """First worker in registration order that can take the task.

        A worker is pickable iff ``free_cores >= min(cores,
        worker.cores)``: a task wider than any worker core budget still
        runs, capped at the worker's budget (documented semantics) — it
        just needs the worker fully idle.  The free-heap pops candidates
        in registration order, so the pick matches the old linear scan
        exactly; entries for drained, dead or detached workers are
        dropped, and still-viable candidates that cannot fit *this* task
        are pushed back.
        """
        heap = self._free_heap
        by_index = self._by_index
        skipped = None
        found = None
        while heap:
            index = heappop(heap)
            worker = by_index.get(index)
            if worker is None:
                continue
            worker.queued = False
            if worker.detached:
                del by_index[index]
                continue
            if worker.free_cores <= 0:
                continue
            if worker.alive and worker.free_cores >= min(cores,
                                                         worker.cores):
                found = worker
                break
            # Still attached but currently unpickable (node down but not
            # yet detached, or not enough free cores for *this* task):
            # keep it visible for later picks, as the old scan did.
            if skipped is None:
                skipped = []
            skipped.append(index)
        if skipped is not None:
            for index in skipped:
                by_index[index].queued = True
                heappush(heap, index)
        return found

    def _run_task(self, task: _Task, worker: RaptorWorker):
        """A dispatch process: its task, then each next task ``_pump``
        places on the core it freed.  The settling resume is woken by a
        NORMAL event and schedules nothing URGENT (payload functions are
        plain callables), so a spawned process's ``Initialize`` would run
        next: running that task inline keeps the event order, minus one
        process per task."""
        while task is not None:
            task = yield from self._dispatch(task, worker)

    def _dispatch(self, task: _Task, worker: RaptorWorker):
        """One dispatch attempt: wire out, execute, wire back, settle;
        returns the next task placed on ``worker``'s freed core, if any."""
        task.attempts += 1
        config = self.config
        desc = task.description
        payload = desc.payload_bytes
        if payload is None:
            payload = config.task_wire_bytes
        cores = min(desc.cores, worker.cores)
        try:
            yield self.overlay.network.send(
                self.node.name, worker.node.name, payload)
            task.started_at = self.env.now
            result = yield from worker.execute(desc, cores)
        except WorkerLost:
            self._release(task, worker)
            self._handle_lost_task(task, worker)
            return
        except InvariantViolation:
            # Sanitizer findings are simulator bugs — settling them as
            # a failed TaskResult would swallow the violation.
            raise
        except Exception as exc:  # payload bugs fail the task, not the sim
            self._release(task, worker)
            self._settle(task, TaskResult(
                tid=task.tid, ok=False, error=repr(exc),
                worker=worker.uid, attempts=task.attempts,
                submitted_at=task.submitted_at,
                started_at=task.started_at, finished_at=self.env.now))
            return self._pump(own=worker)
        result_bytes = desc.result_bytes
        if result_bytes is None:
            result_bytes = config.result_wire_bytes
        yield self.overlay.network.send(
            worker.node.name, self.node.name, result_bytes)
        self._release(task, worker)
        worker.tasks_served += 1
        self._settle(task, TaskResult(
            tid=task.tid, ok=True, result=result, worker=worker.uid,
            attempts=task.attempts, submitted_at=task.submitted_at,
            started_at=task.started_at, finished_at=self.env.now))
        return self._pump(own=worker)

    def _release(self, task: _Task, worker: RaptorWorker) -> None:
        worker.free_cores += min(task.description.cores, worker.cores)
        worker.running.discard(task.tid)
        if not worker.detached and worker.alive and not worker.queued:
            worker.queued = True
            heappush(self._free_heap, worker.reg_index)

    def _handle_lost_task(self, task: _Task, worker: RaptorWorker) -> None:
        """Retry or fail a task whose worker died under it."""
        self.worker_lost(worker)
        if self.closed:
            # _fail_outstanding already settled it (or will not: it was
            # removed from _running by _fail_outstanding's clear).
            if task.tid in self._running:
                del self._running[task.tid]
            return
        if task.attempts <= self.config.task_retries:
            self.tasks_retried += 1
            tel = self.env.telemetry
            if tel is not None:
                tel.counter("raptor.tasks_retried").inc()
                tel.emit("raptor", "task_retry", master=self.uid,
                         tid=task.tid, attempt=task.attempts,
                         lost_worker=worker.uid)
            del self._running[task.tid]
            self._pending.append(task)
            self._pump()
        else:
            self._settle(task, TaskResult(
                tid=task.tid, ok=False,
                error=f"lost worker {worker.uid} "
                      f"(attempt {task.attempts})",
                worker=worker.uid, attempts=task.attempts,
                submitted_at=task.submitted_at,
                started_at=task.started_at, finished_at=self.env.now))
            self._pump()

    # ------------------------------------------------------------- settling
    def _settle(self, task: _Task, envelope: TaskResult) -> None:
        self._running.pop(task.tid, None)
        self._finish(task, envelope)

    def _finish(self, task: _Task, envelope: TaskResult) -> None:
        if task.settled:
            # Already force-settled (master death / no-drain close)
            # while its dispatch process was still unwinding.
            return
        task.settled = True
        if envelope.ok:
            self.tasks_completed += 1
        else:
            self.tasks_failed += 1
        if self.config.retain_results:
            self.results.append(envelope)
        tel = self.env.telemetry
        if tel is not None:
            if envelope.ok:
                tel.counter("raptor.tasks_completed").inc()
                tel.histogram("raptor.task_latency").observe(
                    envelope.latency)
            else:
                tel.counter("raptor.tasks_failed").inc()
        if task.future is not None:
            task.future._resolve(envelope)
        self.overlay._task_settled()
        self._maybe_drained()

    def _maybe_drained(self) -> None:
        if self._pending or self._running or self._in_transit:
            return
        if self._drained is not None and not self._drained.triggered:
            self._drained.succeed()
        waiters, self._idle_waiters = self._idle_waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()

    def idle_event(self) -> Event:
        """Fires when no task is pending, in transit or running."""
        event = Event(self.env)
        if not self._pending and not self._running and not self._in_transit:
            event.succeed()
        else:
            self._idle_waiters.append(event)
        return event

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<RaptorMaster {self.uid}: {len(self.workers)} workers, "
                f"{len(self._pending)} pending, "
                f"{len(self._running)} running>")
