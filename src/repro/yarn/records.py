"""YARN protocol records: resources, containers, applications."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple


@dataclass(frozen=True)
class YarnResource:
    """A (memory, vcores) resource vector, YARN's allocation unit."""

    memory_mb: int
    vcores: int = 1

    def __post_init__(self):
        if self.memory_mb < 0 or self.vcores < 0:
            raise ValueError(f"resource must be non-negative, got {self}")

    def fits_in(self, other: "YarnResource") -> bool:
        return (self.memory_mb <= other.memory_mb
                and self.vcores <= other.vcores)

    def plus(self, other: "YarnResource") -> "YarnResource":
        return YarnResource(self.memory_mb + other.memory_mb,
                            self.vcores + other.vcores)

    def minus(self, other: "YarnResource") -> "YarnResource":
        return YarnResource(self.memory_mb - other.memory_mb,
                            self.vcores - other.vcores)


#: The zero resource vector (used-capacity accumulator start value).
ZERO_RESOURCE = YarnResource(memory_mb=0, vcores=0)


class ContainerState(enum.Enum):
    ALLOCATED = "allocated"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    KILLED = "killed"
    PREEMPTED = "preempted"

    @property
    def is_final(self) -> bool:
        return self in (ContainerState.COMPLETED, ContainerState.FAILED,
                        ContainerState.KILLED, ContainerState.PREEMPTED)


class ApplicationState(enum.Enum):
    NEW = "new"
    SUBMITTED = "submitted"
    ACCEPTED = "accepted"
    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"
    KILLED = "killed"

    @property
    def is_final(self) -> bool:
        return self in (ApplicationState.FINISHED, ApplicationState.FAILED,
                        ApplicationState.KILLED)


@dataclass
class ContainerRequest:
    """An AM's ask for one container.

    ``preferred_nodes`` expresses data locality; after
    ``locality_delay_heartbeats`` scheduling opportunities the scheduler
    relaxes to any node (YARN's delay scheduling).
    """

    resource: YarnResource
    preferred_nodes: Tuple[str, ...] = ()
    relax_locality: bool = True
    #: internal: scheduling opportunities this request has been skipped
    missed_opportunities: int = field(default=0, compare=False)
    #: internal: sim time the request was queued with the RM scheduler,
    #: stamped at enqueue; feeds the container-allocation-latency metric
    requested_at: Optional[float] = field(default=None, compare=False)


class Container:
    """An allocated slice of a NodeManager."""

    def __init__(self, container_id: str, app_id: str, node_name: str,
                 resource: YarnResource):
        self.container_id = container_id
        self.app_id = app_id
        self.node_name = node_name
        self.resource = resource
        self.state = ContainerState.ALLOCATED
        self.exit_code: Optional[int] = None
        self.diagnostics: str = ""


@dataclass
class AppSpec:
    """What a client submits: the YARN ApplicationSubmissionContext.

    ``am_program`` is a callable ``am_program(am_context) -> generator``
    executed inside the AM container once it launches.
    """

    name: str
    am_resource: YarnResource
    am_program: Callable[..., Any]
    queue: str = "default"
    app_type: str = "YARN"
    max_attempts: int = 1


@dataclass
class ApplicationReport:
    """Client-visible application status (``yarn application -status``)."""

    app_id: str
    name: str
    state: ApplicationState
    queue: str
    tracking_diagnostics: str = ""
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    final_status: Optional[str] = None
