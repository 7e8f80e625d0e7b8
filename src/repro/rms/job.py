"""Batch job descriptions, states and handles."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional


class JobState(enum.Enum):
    """Lifecycle of a batch job.

    Legal transitions::

        NEW -> PENDING -> RUNNING -> {DONE, FAILED, CANCELED, TIMEOUT}
        NEW -> PENDING -> CANCELED
    """

    NEW = "new"
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELED = "canceled"
    TIMEOUT = "timeout"

    @property
    def is_final(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED,
                        JobState.CANCELED, JobState.TIMEOUT)


#: Allowed state transitions, used to assert legality at runtime.
LEGAL_TRANSITIONS = {
    JobState.NEW: {JobState.PENDING, JobState.CANCELED},
    JobState.PENDING: {JobState.RUNNING, JobState.CANCELED},
    JobState.RUNNING: {JobState.DONE, JobState.FAILED,
                       JobState.CANCELED, JobState.TIMEOUT},
}


@dataclass
class JobDescription:
    """What a user asks the batch system for (``sbatch``/``qsub`` flags).

    ``payload`` is the simulated executable: a callable
    ``payload(env, job) -> generator`` spawned as a process when the job
    starts.  ``executable``/``arguments`` are carried for SAGA fidelity
    and logging.
    """

    executable: str = "/bin/true"
    arguments: tuple = ()
    num_nodes: int = 1
    walltime: float = 3600.0            # seconds
    queue: str = "normal"
    project: Optional[str] = None
    payload: Optional[Callable[..., Any]] = None
    environment: Dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >=1, got {self.num_nodes}")
        if self.walltime <= 0:
            raise ValueError(f"walltime must be positive, got {self.walltime}")


class BatchJob:
    """Handle to a submitted job: state, events, allocation, env vars."""

    def __init__(self, env, job_id: str, description: JobDescription):
        self.env = env
        self.job_id = job_id
        self.description = description
        self.state = JobState.NEW
        self.allocation = None           # set on dispatch
        self.env_vars: Dict[str, str] = {}
        self.submit_time: Optional[float] = None
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.exit_code: Optional[int] = None
        self.fail_reason: Optional[str] = None
        self.started = env.event()       # fires on RUNNING
        self.finished = env.event()      # fires on any final state
        self._history = [(env.now, JobState.NEW)]

    def advance(self, new_state: JobState, reason: Optional[str] = None) -> None:
        """Move to ``new_state``, asserting the transition is legal."""
        legal = LEGAL_TRANSITIONS.get(self.state, set())
        if new_state not in legal:
            raise ValueError(
                f"illegal job transition {self.state.value} -> "
                f"{new_state.value} for {self.job_id}")
        self.state = new_state
        self._history.append((self.env.now, new_state))
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("rms", "job_state", uid=self.job_id,
                     state=new_state.value,
                     nodes=self.description.num_nodes)
        if new_state is JobState.RUNNING:
            self.start_time = self.env.now
            self.started.succeed(self)
        elif new_state.is_final:
            self.end_time = self.env.now
            self.fail_reason = reason
            if not self.started.triggered:
                # canceled while pending: unblock anyone awaiting start
                self.started.fail(RuntimeError(
                    f"job {self.job_id} reached {new_state.value} "
                    "without starting"))
            self.finished.succeed(self)
