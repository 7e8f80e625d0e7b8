"""The shared batch-scheduler engine.

Node-exclusive FIFO scheduling with aggressive backfill: the head of
the queue waits for enough free nodes; any later job that already fits
may jump ahead (this is how production SLURM behaves with backfill
enabled and no reservations, and it keeps small pilot jobs flowing on a
busy machine).

The scheduler is event-driven: a scheduling pass runs only when the
queue gains a job or a job releases its nodes (the only two moments a
start can become possible), and kicks at one instant coalesce into one
pass.  A world whose jobs have all ended schedules nothing further.

Timing model per job (all configurable via :class:`RmsConfig`):

* ``submit_latency`` — the qsub/sbatch round-trip.
* ``prolog_seconds`` — per-job node health-check/prolog before the
  payload launches (a real and visible chunk of pilot startup time).
* walltime enforcement — payloads still running at the limit are
  interrupted and the job ends in ``TIMEOUT``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.sanitizer import InvariantViolation
from repro.cluster.machine import Machine
from repro.cluster.node import Node
from repro.rms.job import BatchJob, JobDescription, JobState
from repro.sim.engine import Environment, Interrupt


@dataclass(frozen=True)
class RmsConfig:
    """Tunable timings of a batch system."""

    submit_latency: float = 1.0
    prolog_seconds: float = 8.0
    epilog_seconds: float = 2.0


class Allocation:
    """The set of nodes a running job owns exclusively."""

    def __init__(self, nodes: List[Node]):
        self.nodes = list(nodes)

    @property
    def node_names(self) -> List[str]:
        return [n.name for n in self.nodes]

    @property
    def total_cores(self) -> int:
        return sum(n.num_cores for n in self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


class BatchScheduler:
    """Base class for SLURM/Torque/SGE frontends."""

    #: Subclasses override: scheme name used in SAGA URLs and logging.
    kind = "batch"

    def __init__(self, env: Environment, machine: Machine,
                 config: Optional[RmsConfig] = None):
        self.env = env
        self.machine = machine
        self.config = config or RmsConfig()
        self.jobs: Dict[str, BatchJob] = {}
        self._queue: List[BatchJob] = []
        self._free_nodes: List[Node] = list(machine.nodes)
        self._job_counter = itertools.count(1)
        self._payload_procs: Dict[str, object] = {}
        self._kick = env.event()
        env.process(self._scheduler_loop(), name=f"{self.kind}-sched")

    # ---------------------------------------------------------- submission
    def submit(self, description: JobDescription) -> BatchJob:
        """Submit a job; returns its handle immediately (state NEW).

        The job turns PENDING after the configured submit latency, then
        competes for nodes in the scheduling pass its arrival kicks.
        """
        description.validate()
        if description.num_nodes > len(self.machine.nodes):
            raise ValueError(
                f"job wants {description.num_nodes} nodes, machine "
                f"{self.machine.name} has {len(self.machine.nodes)}")
        job_id = self._format_job_id(next(self._job_counter))
        job = BatchJob(self.env, job_id, description)
        self.jobs[job_id] = job
        self.env.process(self._accept(job), name=f"accept-{job_id}")
        return job

    def cancel(self, job_id: str) -> None:
        """Cancel a pending or running job (scancel/qdel)."""
        job = self.jobs[job_id]
        if job.state.is_final:
            return
        if job.state in (JobState.NEW, JobState.PENDING):
            if job in self._queue:
                self._queue.remove(job)
            # NEW jobs must pass through PENDING to reach CANCELED.
            if job.state is JobState.NEW:
                job.advance(JobState.PENDING)
            job.advance(JobState.CANCELED, reason="canceled by user")
        elif job.state is JobState.RUNNING:
            proc = self._payload_procs.get(job_id)
            if proc is not None and proc.is_alive:
                proc.interrupt(cause="canceled")
            # final state is applied by the runner wrapper

    # ------------------------------------------------------------ internals
    def _format_job_id(self, n: int) -> str:
        return f"{self.kind}.{n}"

    def _accept(self, job: BatchJob):
        yield self.env.timeout(self.config.submit_latency)
        if job.state is not JobState.NEW:  # canceled during submit RTT
            return
        job.advance(JobState.PENDING)
        job.submit_time = self.env.now
        self._queue.append(job)
        self._report_queue()
        self._kick_scheduler()

    def _report_queue(self) -> None:
        """Batch-queue depth and free-node gauges (opt-in telemetry)."""
        tel = self.env.telemetry
        if tel is None:
            return
        tel.gauge("rms.queue_depth", rms=self.kind).set(len(self._queue))
        tel.gauge("rms.free_nodes", rms=self.kind).set(
            len(self._free_nodes))

    def _kick_scheduler(self) -> None:
        if not self._kick.triggered:
            self._kick.succeed()

    def _scheduler_loop(self):
        # A start becomes possible only when the queue gains a job or
        # a job releases its nodes; both kick, so no pass is needed
        # between kicks.
        while True:
            yield self._kick
            self._kick = self.env.event()
            self._run_cycle()

    def _run_cycle(self) -> None:
        """One scheduling pass: start, in queue order, every job that fits.

        The head goes first; a later job that fits backfills past a
        blocked head.  Starting a job only takes nodes, so a job that
        did not fit earlier in the pass cannot fit later in it.
        """
        for job in list(self._queue):
            if job.description.num_nodes <= len(self._free_nodes):
                self._queue.remove(job)
                self._dispatch(job)
                self._report_queue()

    def _dispatch(self, job: BatchJob) -> None:
        take = job.description.num_nodes
        nodes, self._free_nodes = (self._free_nodes[:take],
                                   self._free_nodes[take:])
        job.allocation = Allocation(nodes)
        job.env_vars = self.export_environment(job)
        job.env_vars.update(job.description.environment)
        self.env.process(self._run(job), name=f"run-{job.job_id}")

    def _run(self, job: BatchJob):
        yield self.env.timeout(self.config.prolog_seconds)
        job.advance(JobState.RUNNING)
        payload = job.description.payload
        outcome_state = JobState.DONE
        reason = None
        if payload is not None:
            proc = self.env.process(
                payload(self.env, job), name=f"payload-{job.job_id}")
            self._payload_procs[job.job_id] = proc
            limit = self.env.timeout(job.description.walltime)
            try:
                result = yield self.env.any_of([proc, limit])
                if proc in result:
                    job.exit_code = 0
                else:
                    # Walltime exceeded: kill the payload.
                    if proc.is_alive:
                        proc.interrupt(cause="walltime")
                        try:
                            yield proc
                        except Interrupt:
                            # The interrupt we just injected, unwinding
                            # back out of the payload.
                            pass
                        except InvariantViolation:
                            # Sanitizer findings must crash the run,
                            # not be folded into the TIMEOUT reason.
                            raise
                        except Exception as exc:
                            # Payload teardown failed on its own; the
                            # outcome is still TIMEOUT but the wreckage
                            # is recorded rather than swallowed.
                            reason = f"payload teardown raised {exc!r}"
                    outcome_state = JobState.TIMEOUT
                    if reason is None:
                        reason = "walltime exceeded"
                    else:
                        reason = f"walltime exceeded; {reason}"
            except Interrupt as exc:
                if exc.cause == "canceled":
                    outcome_state = JobState.CANCELED
                    reason = "canceled by user"
                else:
                    outcome_state = JobState.FAILED
                    reason = repr(exc)
            except InvariantViolation:
                # A sanitizer finding is a simulator bug, not a job
                # outcome; a FAILED job record would swallow it.
                raise
            except Exception as exc:
                outcome_state = JobState.FAILED
                reason = repr(exc)
        self._payload_procs.pop(job.job_id, None)
        yield self.env.timeout(self.config.epilog_seconds)
        self._release(job)
        job.advance(outcome_state, reason=reason)
        self._kick_scheduler()

    def _release(self, job: BatchJob) -> None:
        if job.allocation is not None:
            self._free_nodes.extend(job.allocation.nodes)
            job.allocation_released = True
            self._report_queue()

    # -------------------------------------------------------- RMS dialects
    def export_environment(self, job: BatchJob) -> Dict[str, str]:
        """Per-RMS environment variables visible to the payload.

        Subclasses provide the dialect the RADICAL-Pilot LRM parses.
        """
        raise NotImplementedError
