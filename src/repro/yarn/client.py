"""YarnClient: ``yarn jar``-style submission with client-side costs."""

from __future__ import annotations

from repro.sim.engine import Environment
from repro.yarn.records import ApplicationReport, AppSpec
from repro.yarn.resource_manager import AppRecord, ResourceManager


class YarnClient:
    """Client-side YARN access (the ``yarn`` command line / YarnClient API).

    ``submit`` is a generator paying the client JVM startup +
    submission RPC before the RM even sees the application — a real and
    measurable slice of the Compute-Unit startup overhead in Figure 5.
    """

    def __init__(self, env: Environment, rm: ResourceManager):
        self.env = env
        self.rm = rm

    def submit(self, spec: AppSpec):
        """Submit an application.  Generator returning the AppRecord."""
        yield self.env.timeout(self.rm.config.client_submit_seconds)
        app = self.rm.submit_application(spec)
        return app

    def wait_for_completion(self, app: AppRecord):
        """Block (in sim time) until the application finishes.

        Generator returning the final ApplicationReport.
        """
        yield app.finished
        return self.rm.application_report(app.app_id)

    def kill(self, app_id: str) -> None:
        self.rm.kill_application(app_id)
