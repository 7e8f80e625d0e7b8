"""The raptor task protocol: descriptions, result envelopes, futures.

A raptor *task* is much lighter than a Compute-Unit: a small Python
function call that streams master -> worker as a few-KB message over the
simulated interconnect, executes inside a long-lived worker slot (no
batch-system or YARN allocation on the critical path) and streams its
result envelope back.  :class:`TaskDescription` follows the repo-wide
keyword-validated dataclass convention
(:class:`repro.core.description.Description`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.description import Description
from repro.sim.engine import Environment, Event

#: Default wire size of a serialized task message (bytes).
TASK_WIRE_BYTES = 2048.0
#: Default wire size of a serialized result envelope (bytes).
RESULT_WIRE_BYTES = 1024.0


@dataclass
class RaptorConfig(Description):
    """Tunables of one master/worker overlay.

    The per-task costs here are what the overlay's throughput model is
    made of: a worker pays ``dispatch_overhead_seconds`` per task (the
    function-call dispatch inside the warm worker process) instead of
    the batch/YARN allocation a Compute-Unit pays.
    """

    #: Worker-side per-task dispatch cost (deserialize + call), seconds.
    dispatch_overhead_seconds: float = 0.001
    #: Master -> worker task message size on the wire (bytes).
    task_wire_bytes: float = TASK_WIRE_BYTES
    #: Worker -> master result envelope size on the wire (bytes).
    result_wire_bytes: float = RESULT_WIRE_BYTES
    #: Worker -> master registration message size (bytes).
    register_wire_bytes: float = 512.0
    #: Times a task lost to a worker crash is re-dispatched before its
    #: future resolves with a failed envelope.
    task_retries: int = 3
    #: Keep every :class:`TaskResult` on the master (``results`` list).
    #: Large streams (1e5+ tasks) turn this off and read counters only.
    retain_results: bool = True
    #: Client -> master submission latency per ``submit_tasks`` batch.
    submit_latency: float = 0.02

    def _check(self) -> None:
        self._require(self.dispatch_overhead_seconds >= 0,
                      "dispatch overhead must be non-negative")
        self._require(self.task_wire_bytes >= 0
                      and self.result_wire_bytes >= 0
                      and self.register_wire_bytes >= 0,
                      "wire sizes must be non-negative")
        self._require(self.task_retries >= 0,
                      "task_retries must be non-negative")
        self._require(self.submit_latency >= 0,
                      "submit_latency must be non-negative")


@dataclass
class TaskDescription(Description):
    """One function task for the overlay.

    ``cpu_seconds`` is modeled compute (reference-CPU seconds, divided
    by ``cores`` on the worker's node), ``function`` an optional real
    Python callable executed eagerly on completion of the modeled
    phase; its return value travels back in the result envelope.
    """

    function: Optional[Callable[..., Any]] = None
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    cores: int = 1
    cpu_seconds: float = 0.0
    #: Wire-size overrides; ``None`` uses the overlay's RaptorConfig.
    payload_bytes: Optional[float] = None
    result_bytes: Optional[float] = None
    name: str = ""

    def _check(self) -> None:
        self._require(self.cores >= 1, "task needs >= 1 core")
        self._require(self.cpu_seconds >= 0,
                      "cpu_seconds must be non-negative")
        if self.payload_bytes is not None:
            self._require(self.payload_bytes >= 0,
                          "payload_bytes must be non-negative")
        if self.result_bytes is not None:
            self._require(self.result_bytes >= 0,
                          "result_bytes must be non-negative")


class TaskResult:
    """The result envelope a worker streams back for one task."""

    __slots__ = ("tid", "ok", "result", "error", "worker", "attempts",
                 "submitted_at", "started_at", "finished_at")

    def __init__(self, tid: int, ok: bool, result: Any = None,
                 error: str = "", worker: str = "", attempts: int = 1,
                 submitted_at: float = 0.0,
                 started_at: Optional[float] = None,
                 finished_at: float = 0.0):
        self.tid = tid
        self.ok = ok
        self.result = result
        self.error = error
        self.worker = worker
        self.attempts = attempts
        self.submitted_at = submitted_at
        self.started_at = started_at
        self.finished_at = finished_at

    @property
    def latency(self) -> float:
        """Submission-to-result latency (the overlay's Figure 5 inset)."""
        return self.finished_at - self.submitted_at


class TaskFuture:
    """Client-side completion handle for one submitted task."""

    __slots__ = ("tid", "description", "_event")

    def __init__(self, env: Environment, tid: int,
                 description: TaskDescription):
        self.tid = tid
        self.description = description
        self._event = Event(env)

    def wait(self) -> Event:
        """Event firing with the :class:`TaskResult` envelope."""
        return self._event

    def result(self) -> TaskResult:
        """The settled envelope; raises if the task is still in flight."""
        if not self._event.triggered:
            raise RuntimeError(f"task.{self.tid} is still in flight")
        return self._event.value

    def _resolve(self, envelope: TaskResult) -> None:
        if not self._event.triggered:
            self._event.succeed(envelope)
