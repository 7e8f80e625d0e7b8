"""PilotManager: launches and tracks pilots through SAGA."""

from __future__ import annotations

from typing import Dict

from repro.core.agent.agent import Agent
from repro.core.description import ComputePilotDescription
from repro.core.pilot import ComputePilot
from repro.core.session import Session
from repro.core.states import PilotState
from repro.saga.job import Description as SagaDescription
from repro.saga.job import Service
from repro.sim.engine import Ticker


class PilotManager:
    """Client-side pilot lifecycle (paper Figure 3, steps P.1-P.2).

    ``submit_pilot`` translates a ComputePilotDescription into a SAGA
    job whose payload is the RADICAL-Pilot-Agent, submits it to the
    target site's batch system, and returns the pilot handle.  A watcher
    process replays DB-side state changes (written by the agent) onto
    the handle.
    """

    def __init__(self, session: Session, heartbeat_timeout: float = 300.0,
                 heartbeat_check_interval: float = 30.0):
        self.session = session
        self.env = session.env
        self.uid = session.next_uid("pmgr")
        self.heartbeat_timeout = heartbeat_timeout
        self.pilots: Dict[str, ComputePilot] = {}
        self._services: Dict[str, Service] = {}
        self._watcher = self.env.process(self._watch_loop(),
                                         name=f"{self.uid}-watch")
        self._hb_ticker = Ticker(self.env, heartbeat_check_interval)
        self._hb_monitor = self.env.process(
            self._heartbeat_monitor(), name=f"{self.uid}-hb")
        #: pilot uid -> agent handle, kept so the checkpoint fingerprint
        #: can reach live scheduler free-core state.
        self.agents: Dict[str, object] = {}
        session.register_component(self)

    # ---------------------------------------------------------- submission
    def submit_pilot(self, description: ComputePilotDescription) -> ComputePilot:
        """Submit one pilot; returns its handle immediately."""
        description.validate()
        uid = self.session.next_uid("pilot")
        pilot = ComputePilot(self.env, uid, description)
        self.pilots[uid] = pilot

        col = self.session.db.collection("pilots")
        col.insert({
            "_id": uid,
            "state": PilotState.NEW.value,
            "history": [(self.env.now, PilotState.NEW.value)],
            "resource": description.resource,
            "cancel_requested": False,
        })

        service = self._service(description.resource)
        agent = Agent(self.session, uid, service.site, description)
        self.agents[uid] = agent
        col.advance(uid, PilotState.PENDING_LAUNCH, self.env.now)

        saga_job = service.create_job(SagaDescription(
            executable="radical-pilot-agent",
            arguments=(uid,),
            number_of_nodes=description.nodes,
            wall_time_limit=description.runtime,
            queue=description.queue,
            project=description.project,
            payload=agent.payload()))
        self.env.process(self._launch(uid, saga_job),
                         name=f"launch-{uid}")
        return pilot

    def _service(self, resource: str) -> Service:
        if resource not in self._services:
            self._services[resource] = Service(
                resource, self.session.registry)
        return self._services[resource]

    def _launch(self, uid: str, saga_job):
        col = self.session.db.collection("pilots")
        col.advance(uid, PilotState.LAUNCHING, self.env.now)
        saga_job.run()
        try:
            yield saga_job.wait_started()
        except RuntimeError:
            # canceled or failed before starting
            if not PilotState(col.get(uid)["state"]).is_final:
                col.advance(uid, PilotState.FAILED, self.env.now)
            return
        # From here the agent payload drives the DB document; the batch
        # job's final state is checked as a safety net.
        batch_job = saga_job.batch_job
        yield batch_job.finished
        if not PilotState(col.get(uid)["state"]).is_final:
            # agent died without finalizing (e.g. crashed payload)
            col.advance(uid, PilotState.FAILED, self.env.now,
                        fail_reason=batch_job.fail_reason)

    # ------------------------------------------------------------- control
    def cancel_pilot(self, uid: str) -> None:
        """Request pilot cancellation (served at the agent's next poll)."""
        self.session.db.collection("pilots").set(
            uid, {"cancel_requested": True})

    # ------------------------------------------------- heartbeat monitor
    def _heartbeat_monitor(self):
        """Fail ACTIVE pilots whose agent stopped heartbeating.

        The agent writes a heartbeat into its pilot document on every
        main-loop pass; a hung or partitioned agent (as opposed to one
        that exited — the batch-job safety net covers that) is detected
        here and its pilot declared FAILED.

        Parks (:class:`~repro.sim.engine.Ticker`) while no pilot is
        ACTIVE, so an idle manager keeps no event queued; while pilots
        are ACTIVE the checks run every ``heartbeat_check_interval`` on
        the grid that starts when the manager is created.
        """
        col = self.session.db.collection("pilots")
        while True:
            yield from self._hb_ticker.tick(lambda: any(
                p.state is PilotState.ACTIVE for p in self.pilots.values()))
            for uid, pilot in self.pilots.items():
                if pilot.state is not PilotState.ACTIVE:
                    continue
                last = col.get(uid).get(
                    "heartbeat", pilot.timestamp(PilotState.ACTIVE))
                if last is None:
                    continue
                if self.env.now - last > self.heartbeat_timeout:
                    tel = self.env.telemetry
                    if tel is not None:
                        tel.emit("pilot", "heartbeat_timeout", uid=uid,
                                 last_heartbeat=last,
                                 silent_for=self.env.now - last)
                        tel.counter("pmgr.heartbeat_timeouts").inc()
                    col.advance(uid, PilotState.FAILED, self.env.now,
                                fail_reason="agent heartbeat timeout")

    # ------------------------------------------------------------- watcher
    def _watch_loop(self):
        col = self.session.db.collection("pilots")
        while True:
            change = col.watch()
            self._sync()
            yield change

    def _sync(self) -> None:
        col = self.session.db.collection("pilots")
        for uid, pilot in self.pilots.items():
            doc = col.get(uid)
            for _, state_value in doc["history"][len(pilot.history):]:
                pilot.advance(PilotState(state_value))
                if pilot.state is PilotState.ACTIVE:
                    self._hb_ticker.wake()
            if doc.get("agent_info") and not pilot.agent_info:
                pilot.agent_info = doc["agent_info"]

    def snapshot_state(self) -> dict:
        """Checkpoint fingerprint: pilot states + agent scheduler cores.

        Reduces each live pilot handle to its deterministic coordinates
        and asks each agent's backend scheduler for its free-core
        summary, so a restored process can prove the allocation state
        replayed identically.
        """
        pilots = {}
        for uid, pilot in sorted(self.pilots.items()):
            entry: dict = {"state": pilot.state.value}
            agent = self.agents.get(uid)
            # No backend until the agent has bootstrapped.
            if agent is not None and agent.backend is not None:
                entry["scheduler"] = agent.backend.scheduler.snapshot_state()
            pilots[uid] = entry
        return {"kind": "pilot_manager", "uid": self.uid,
                "pilots": pilots}
