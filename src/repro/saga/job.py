"""The SAGA job API: Service, Description, Job.

Mirrors radical.saga's shape::

    service = Service("slurm://stampede", registry)
    desc = Description(executable="agent.py", number_of_nodes=2,
                       wall_time_limit=60)
    job = service.create_job(desc)
    job.run()
    yield job.wait()     # simulation processes yield instead of blocking

The URL scheme must match the site's registered batch system — a
``slurm://`` URL against a Torque site raises, as the real adaptor
would fail to find the commands it shells out to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.rms.job import BatchJob, JobDescription, JobState
from repro.saga.registry import Registry, Site
from repro.saga.url import Url

#: SAGA job states (string constants, as in saga-python).
NEW = "New"
PENDING = "Pending"
RUNNING = "Running"
DONE = "Done"
FAILED = "Failed"
CANCELED = "Canceled"

_STATE_MAP = {
    JobState.NEW: NEW,
    JobState.PENDING: PENDING,
    JobState.RUNNING: RUNNING,
    JobState.DONE: DONE,
    JobState.FAILED: FAILED,
    JobState.CANCELED: CANCELED,
    JobState.TIMEOUT: FAILED,
}

#: Which RMS kinds each URL scheme may drive.
_SCHEME_TO_RMS = {
    "slurm": {"slurm"},
    "torque": {"torque"},
    "pbs": {"torque"},
    "sge": {"sge"},
    "fork": {"slurm", "torque", "sge"},  # fork runs on whatever login node
}


@dataclass
class Description:
    """SAGA job description (attribute names follow saga-python)."""

    executable: str = "/bin/true"
    arguments: tuple = ()
    number_of_nodes: int = 1
    wall_time_limit: float = 60.0      # minutes, as in SAGA
    queue: str = "normal"
    project: Optional[str] = None
    environment: Dict[str, str] = field(default_factory=dict)
    #: Extension: simulated payload run on the allocation.
    payload: Optional[Callable[..., Any]] = None

    def to_rms(self) -> JobDescription:
        """Translate to the batch system's native description."""
        return JobDescription(
            executable=self.executable,
            arguments=tuple(self.arguments),
            num_nodes=self.number_of_nodes,
            walltime=self.wall_time_limit * 60.0,
            queue=self.queue,
            project=self.project,
            payload=self.payload,
            environment=dict(self.environment),
        )


class Job:
    """Handle to a job created through a SAGA service."""

    def __init__(self, service: "Service", description: Description):
        self.service = service
        self.description = description
        self._batch_job: Optional[BatchJob] = None

    @property
    def id(self) -> Optional[str]:
        if self._batch_job is None:
            return None
        return f"[{self.service.url}]-[{self._batch_job.job_id}]"

    @property
    def state(self) -> str:
        if self._batch_job is None:
            return NEW
        return _STATE_MAP[self._batch_job.state]

    @property
    def batch_job(self) -> Optional[BatchJob]:
        """The underlying RMS job (simulation-level introspection)."""
        return self._batch_job

    def run(self) -> "Job":
        """Submit to the site's batch system."""
        if self._batch_job is not None:
            raise RuntimeError("job already submitted")
        self._batch_job = self.service.site.rms.submit(
            self.description.to_rms())
        return self

    def wait(self):
        """Event that fires when the job reaches a final state."""
        if self._batch_job is None:
            raise RuntimeError("job not yet submitted")
        return self._batch_job.finished

    def wait_started(self):
        """Event that fires when the job starts running."""
        if self._batch_job is None:
            raise RuntimeError("job not yet submitted")
        return self._batch_job.started

    def cancel(self) -> None:
        if self._batch_job is None:
            raise RuntimeError("job not yet submitted")
        self.service.site.rms.cancel(self._batch_job.job_id)


class Service:
    """A SAGA job service bound to one site via its URL."""

    def __init__(self, url: str, registry: Registry):
        self.url = Url.parse(url)
        self.registry = registry
        self.site: Site = self.registry.lookup(self.url.host)
        allowed = _SCHEME_TO_RMS.get(self.url.scheme)
        if allowed is None:
            raise ValueError(f"unsupported SAGA scheme {self.url.scheme!r}")
        if self.site.rms_kind not in allowed:
            raise ValueError(
                f"adaptor mismatch: {self.url.scheme}:// cannot drive a "
                f"{self.site.rms_kind} site ({self.site.hostname})")
        self.jobs: list[Job] = []

    def create_job(self, description: Description) -> Job:
        job = Job(self, description)
        self.jobs.append(job)
        return job
