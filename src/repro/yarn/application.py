"""The ApplicationMaster protocol: AmContext.

An AM program is a generator function receiving an :class:`AmContext`;
through it the AM registers, asks for containers (heartbeat-paced, as
in the AMRMClient), launches payloads in granted containers, and
reports a final status.  The RADICAL-Pilot Application Master (paper
Figure 4) is written against this interface, as are the MapReduce and
test AMs.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.sim.engine import Event
from repro.yarn.records import (
    Container,
    ContainerRequest,
    ContainerState,
    YarnResource,
)


class AmContext:
    """What an ApplicationMaster sees of the cluster."""

    def __init__(self, rm, app, am_container: Container):
        self.rm = rm
        self.app = app
        self.am_container = am_container
        self.env = rm.env

    # ------------------------------------------------------------ protocol
    def add_container_request(self, request: ContainerRequest) -> None:
        """Queue one container ask with the RM scheduler."""
        request.resource = self.rm._normalize(request.resource)
        if request.requested_at is None:
            request.requested_at = self.env.now
        self.app.pending.append(request)
        self.rm._request_queued(self.app)

    def request_containers(self, count: int, resource: YarnResource,
                           preferred_nodes: Sequence[str] = ()) -> None:
        """Convenience: queue ``count`` identical asks."""
        for _ in range(count):
            self.add_container_request(ContainerRequest(
                resource=resource,
                preferred_nodes=tuple(preferred_nodes)))

    def allocate(self):
        """One AM heartbeat: wait a beat, then drain newly granted
        containers and completed-container notifications.

        Generator returning ``(granted, completed)`` lists — the shape
        of ``AllocateResponse``.
        """
        yield self.env.timeout(self.rm.config.am_heartbeat)
        granted, self.app.granted = self.app.granted, []
        completed, self.app.completed = self.app.completed, []
        return granted, completed

    def wait_for_containers(self, count: int, timeout: Optional[float] = None):
        """Heartbeat until ``count`` containers are granted.  Generator
        returning the list (may be shorter on timeout)."""
        collected: List[Container] = []
        deadline = None if timeout is None else self.env.now + timeout
        while len(collected) < count:
            granted, _ = yield from self.allocate()
            collected.extend(granted)
            if deadline is not None and self.env.now >= deadline:
                break
        return collected

    def start_container(self, container: Container,
                        payload: Callable[..., object]) -> Event:
        """Launch ``payload(env, container)`` in a granted container."""
        nm = self.rm.node_managers[container.node_name]
        return nm.start_container(
            container, payload, on_complete=self.rm._on_container_complete)

    def release_container(self, container: Container) -> None:
        """Give back an unused (or running) container."""
        nm = self.rm.node_managers.get(container.node_name)
        if nm is not None:
            nm.kill_container(container.container_id,
                              ContainerState.KILLED, "released by AM")
            self.rm._on_container_complete(container)

    def finish(self, status: str = "SUCCEEDED", diagnostics: str = "") -> None:
        """Declare the application outcome (read when the AM exits)."""
        self.app.final_status = status
        if diagnostics:
            self.app.diagnostics = diagnostics

    # ------------------------------------------------------------- queries
