"""RaptorOverlay: the client-side handle for one master/worker overlay.

``session.raptor(pilot, workers=8)`` builds the overlay on top of an
ACTIVE pilot: one master Compute-Unit plus N worker Compute-Units are
submitted through the **normal** unit path (so they pay the 2-step
allocation the paper measures exactly once), and every subsequent
function task skips that path entirely — it streams to a warm worker
over the interconnect.

The overlay composes with :mod:`repro.faults`: workers are submitted
under an optional :class:`~repro.faults.spec.RestartPolicy`, so a node
crash fails the worker CU, the Unit-Manager resubmits it with backoff,
and the replacement registers a fresh worker with the master while the
master re-dispatches the crashed worker's in-flight tasks elsewhere.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence

from repro.core.description import ComputeUnitDescription
from repro.core.unit_manager import UnitManager
from repro.raptor.master import RaptorMaster
from repro.raptor.task import RaptorConfig, TaskDescription, TaskFuture
from repro.raptor.worker import worker_service
from repro.saga.url import Url
from repro.sim.engine import Event


class RaptorOverlay:
    """One overlay: a master CU, N worker CUs and a task stream."""

    def __init__(self, session, pilot, workers: int = 4,
                 cores_per_worker: int = 1, master_cores: int = 1,
                 restart_policy=None,
                 config: Optional[RaptorConfig] = None):
        if workers < 1:
            raise ValueError("an overlay needs >= 1 worker")
        self.session = session
        self.env = session.env
        self.pilot = pilot
        self.num_workers = workers
        self.cores_per_worker = cores_per_worker
        self.master_cores = master_cores
        self.config = (config or RaptorConfig()).validate()
        site = session.registry.lookup(
            Url.parse(pilot.description.resource).host)
        self.network = site.machine.network
        self.uid = session.next_uid("raptor")
        self.master = RaptorMaster(self, f"{self.uid}.master")
        self.drain_on_close = True
        self._next_tid = 1
        self._wait_all: List[tuple] = []
        self._started = False
        # Fresh managers so overlay policies never leak into the
        # session's singleton: the master has *no* restart policy (its
        # death is the overlay's death — a documented single point of
        # failure), the workers carry the caller's policy.
        self._master_umgr = UnitManager(session)
        self._worker_umgr = UnitManager(session,
                                        restart_policy=restart_policy)
        self.master_unit = None
        self.worker_units: List = []

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "RaptorOverlay":
        """Submit the master and worker CUs (idempotent)."""
        if self._started:
            return self
        self._started = True
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("raptor", "overlay_start", overlay=self.uid,
                     workers=self.num_workers,
                     cores_per_worker=self.cores_per_worker)
        self._master_umgr.add_pilots(self.pilot)
        self._worker_umgr.add_pilots(self.pilot)
        self.master_unit = self._master_umgr.submit_units(
            ComputeUnitDescription(
                cores=self.master_cores,
                service=self.master.service,
                name=f"{self.uid}.master"))[0]
        worker_desc = ComputeUnitDescription(
            cores=self.cores_per_worker,
            service=partial(worker_service, self),
            name=f"{self.uid}.worker")
        self.worker_units = self._worker_umgr.submit_units(
            [worker_desc] * self.num_workers)
        return self

    def ready(self, workers: Optional[int] = None) -> Event:
        """Event firing once the master is up and ``workers`` (default:
        all) workers have registered."""
        count = self.num_workers if workers is None else workers
        return self.master.workers_event(count)

    def snapshot_state(self) -> dict:
        """Checkpoint fingerprint: overlay shape + live master state."""
        return {"kind": "raptor_overlay", "uid": self.uid,
                "workers": self.num_workers,
                "cores_per_worker": self.cores_per_worker,
                "started": self._started,
                "next_tid": self._next_tid,
                "master": self.master.snapshot_state()}

    # ------------------------------------------------------------- tasks
    def submit_tasks(self, descriptions: Sequence[TaskDescription],
                     futures: bool = True) -> Optional[List[TaskFuture]]:
        """Submit a batch of tasks; returns their completion futures.

        ``futures=False`` skips future allocation for very large streams
        (1e5+ tasks) — completion is then observed with :meth:`wait`
        (no-args) and the overlay counters.
        """
        if not self._started:
            raise RuntimeError("overlay not started")
        if self.master.closed:
            raise RuntimeError(f"overlay {self.uid} is closed")
        if isinstance(descriptions, TaskDescription):
            descriptions = [descriptions]
        master = self.master
        batch = []
        handles: Optional[List[TaskFuture]] = [] if futures else None
        for desc in descriptions:
            desc.validate()
            tid = self._next_tid
            self._next_tid += 1
            future = None
            if futures:
                future = TaskFuture(self.env, tid, desc)
                handles.append(future)
            batch.append(master.make_task(tid, desc, future))
        if batch:
            master.submit_batch(batch, self.config.submit_latency)
        return handles

    def wait(self, futures: Optional[Sequence[TaskFuture]] = None) -> Event:
        """Event firing when ``futures`` settle (default: every task
        submitted so far, futures or not)."""
        if futures is not None:
            return self.env.all_of([f.wait() for f in futures])
        event = Event(self.env)
        target = self._next_tid - 1
        if self._settled() >= target:
            event.succeed()
        else:
            self._wait_all.append((target, event))
        return event

    def _settled(self) -> int:
        return self.master.tasks_completed + self.master.tasks_failed

    def _task_settled(self) -> None:
        """Master hook: a task finished; wake satisfied waiters."""
        settled = self._settled()
        still = []
        for target, event in self._wait_all:
            if settled >= target:
                if not event.triggered:
                    event.succeed()
            else:
                still.append((target, event))
        self._wait_all = still

    # ------------------------------------------------------------- teardown
    def close(self, drain: bool = True) -> Event:
        """Shut the overlay down; event fires when every CU is final.

        ``drain=True`` (default) lets queued and running tasks finish
        first; ``drain=False`` fails outstanding futures immediately.
        """
        self.drain_on_close = drain
        self.master.request_close()
        waits = [self._master_umgr.wait_units([self.master_unit])]
        if self.worker_units:
            waits.append(self._worker_umgr.wait_units(self.worker_units))
        return self.env.all_of(waits)

    # ------------------------------------------------------------- inspect
    def stats(self) -> dict:
        """The overlay counters, one canonical dict."""
        master = self.master
        return {
            "overlay": self.uid,
            "workers_registered": master._registered_total,
            "workers_lost": master.workers_lost,
            "tasks_submitted": master.tasks_submitted,
            "tasks_completed": master.tasks_completed,
            "tasks_failed": master.tasks_failed,
            "tasks_retried": master.tasks_retried,
        }
