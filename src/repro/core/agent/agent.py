"""The RADICAL-Pilot-Agent main loop.

Runs as the batch job's payload on the allocation (paper Figure 3):

1. bootstrap (virtualenv, module loads) and MongoDB connect;
2. LRM initialization — allocation discovery plus, for the paper's
   extensions, the Mode I Hadoop/Spark bootstrap or Mode II connect;
3. pilot goes ACTIVE (with agent metrics recorded for the benchmarks);
4. main loop: poll the shared DB for units assigned to this pilot,
   drive each through the agent pipeline
   (staging-input -> scheduling -> executing -> staging-output -> done)
   with the backend's scheduler and Task Spawner;
5. on cancel/walltime: interrupt in-flight units, tear the LRM down
   (stopping any Hadoop/Spark daemons), finalize the pilot.

All state changes are appended to the unit/pilot documents in the
shared DB; the client-side managers replay them onto the handles.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.sanitizer import InvariantViolation
from repro.core.agent.executor import ExecutionError, make_backend
from repro.core.agent.lrm import make_lrm
from repro.core.description import AgentConfig, ComputePilotDescription
from repro.core.states import PilotState, UnitState
from repro.rms.job import BatchJob
from repro.saga.registry import Site
from repro.sim.engine import Environment, Interrupt, Process


class Agent:
    """One agent instance, bound to a pilot and a site."""

    def __init__(self, session, pilot_uid: str, site: Site,
                 description: ComputePilotDescription):
        self.session = session
        self.env: Environment = session.env
        self.pilot_uid = pilot_uid
        self.site = site
        self.description = description
        self.config: AgentConfig = description.agent_config
        self._pilots = session.db.collection("pilots")
        self._units = session.db.collection("units")
        self.lrm = None
        self.backend = None
        #: uid -> pipeline process, for *live* pipelines only (a
        #: pipeline removes itself on exit); dict order = claim order.
        self._unit_procs: Dict[str, Process] = {}
        #: units claimed so far (the queue delivers each uid once).
        self._claims = 0
        self._pilot_span = None

    # ------------------------------------------------------------- payload
    def payload(self):
        """The callable handed to the batch system as job payload."""

        def _run(env, batch_job):
            yield from self._run(batch_job)

        return _run

    def _advance_pilot(self, state: PilotState, **extra) -> None:
        self._pilots.advance(self.pilot_uid, state, self.env.now, **extra)
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("pilot", "state", uid=self.pilot_uid,
                     state=state.value,
                     agent_info=extra.get("agent_info"))

    def _advance_unit(self, uid: str, state: UnitState, **extra) -> None:
        self._units.advance(uid, state, self.env.now, **extra)
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("unit", "state", uid=uid, pilot=self.pilot_uid,
                     state=state.value)

    # ----------------------------------------------------------- main loop
    def _run(self, batch_job: BatchJob):
        final_state = PilotState.DONE
        tel = self.env.telemetry
        boot_span = None
        if tel is not None:
            self._pilot_span = tel.tracer.begin(
                self.pilot_uid, cat="pilot",
                track=f"pilot {self.pilot_uid}", lrm=self.config.lrm,
                nodes=self.description.nodes)
            boot_span = tel.tracer.begin(
                "agent.bootstrap", cat="agent", parent=self._pilot_span)
        try:
            self._advance_pilot(PilotState.PENDING_ACTIVE)
            # 1. bootstrap + DB connect
            jitter = self.session.rng.stream(
                f"agent-{self.pilot_uid}")
            yield self.env.timeout(jitter.lognormal_around(
                self.config.bootstrap_seconds, 0.03))
            yield self.env.timeout(self.config.db_connect_seconds)
            yield self.session.db.roundtrip()
            # 2. LRM init (Mode I/II bootstrap happens here)
            self.lrm = make_lrm(self.config.lrm, self.env, self.site,
                                self.config)
            yield from self.lrm.initialize(batch_job)
            self.backend = make_backend(self.lrm, self.env, self.config)
            if tel is not None:
                tel.tracer.end(boot_span, lrm=self.lrm.name,
                               lrm_setup_seconds=self.lrm.setup_seconds)
            # 3. go ACTIVE
            self._advance_pilot(
                PilotState.ACTIVE,
                agent_info={
                    "lrm": self.lrm.name,
                    "lrm_setup_seconds": self.lrm.setup_seconds,
                    "nodes": [n.name for n in self.lrm.nodes],
                    "cores": self.lrm.total_cores,
                })
            # 4. unit intake loop (each pass doubles as the heartbeat
            # the client-side monitor watches, paper Figure 3)
            while True:
                if self._cancel_requested():
                    final_state = PilotState.CANCELED
                    break
                for name in self.backend.reap_dead_nodes():
                    if tel is not None:
                        tel.emit("agent", "node_lost",
                                 pilot=self.pilot_uid, node=name)
                        tel.counter("agent.nodes_lost").inc()
                self._claim_new_units()
                self._pilots.set(self.pilot_uid,
                                 {"heartbeat": self.env.now})
                if tel is not None:
                    in_flight = len(self._unit_procs)
                    tel.emit("agent", "heartbeat", pilot=self.pilot_uid,
                             claimed=self._claims,
                             in_flight=in_flight)
                    tel.gauge("agent.inflight_units",
                              pilot=self.pilot_uid).set(in_flight)
                yield self.env.timeout(self.config.db_poll_interval)
        except Interrupt:
            # walltime (RMS) or hard cancel
            final_state = PilotState.DONE
        except GeneratorExit:
            # the simulation is being torn down (process GC'd at the
            # end of a run): no simulated teardown can happen anymore
            raise
        except Exception as exc:
            # bootstrap/LRM failure: the pilot fails, the batch job
            # exits "cleanly" with the error recorded in the document.
            final_state = PilotState.FAILED
            self._pilots.set(self.pilot_uid, {"agent_error": repr(exc)})
        yield from self._teardown(final_state)

    def _cancel_requested(self) -> bool:
        return bool(self._pilots.get(self.pilot_uid)["cancel_requested"])

    def _claim_new_units(self) -> None:
        for doc in self._units.drain(self.pilot_uid):
            if doc["state"] != UnitState.UMGR_SCHEDULING.value:
                continue    # cancelled (or failed over) before claim
            self._claims += 1
            self._unit_procs[doc["_id"]] = self.env.process(
                self._unit_pipeline(doc), name=f"unit-{doc['_id']}")

    # -------------------------------------------------------- unit pipeline
    def _unit_pipeline(self, doc: Dict):
        uid = doc["_id"]
        desc = doc["description"]
        allocation = None
        tel = self.env.telemetry
        unit_span = None
        phase_box = [None]

        def _phase(name: Optional[str]) -> None:
            """Close the current phase span and open the next one."""
            if tel is None:
                return
            if phase_box[0] is not None:
                tel.tracer.end(phase_box[0])
            phase_box[0] = None if name is None else tel.tracer.begin(
                name, cat="unit.phase", parent=unit_span, track=uid)

        if tel is not None:
            unit_span = tel.tracer.begin(
                uid, cat="unit", parent=self._pilot_span, track=uid,
                pilot=self.pilot_uid, cores=desc.cores)

        started = [False]

        def _on_start() -> None:
            # Idempotent: a YARN container re-attempt fires this again;
            # the state machine forbids EXECUTING -> EXECUTING, so only
            # the first start advances.  Armed transient faults are
            # consumed once per attempt, so ``times=2`` poisons two
            # consecutive container attempts.
            if not started[0]:
                started[0] = True
                self._advance_unit(uid, UnitState.EXECUTING)
                _phase("execute")
            elif tel is not None:
                tel.emit("unit", "reattempt", uid=uid,
                         pilot=self.pilot_uid)
            faults = self.env.faults
            if faults is not None:
                err = faults.take_unit_error(uid)
                if err is not None:
                    raise ExecutionError(err)

        try:
            # stage-in
            self._advance_unit(uid, UnitState.AGENT_STAGING_INPUT)
            _phase("stage_in")
            for path, _nbytes in desc.input_staging:
                if not self.site.scratch.exists(path):
                    raise ExecutionError(f"stage-in missing: {path}")
                yield self.site.scratch.read(path)
            # agent scheduling
            self._advance_unit(uid, UnitState.AGENT_SCHEDULING)
            _phase("schedule")
            t_request = self.env.now
            allocation = yield self.backend.schedule(desc)
            if tel is not None:
                tel.histogram("agent.allocation_latency",
                              backend=self.backend.name).observe(
                    self.env.now - t_request)
            # executing — the EXECUTING transition fires when the task
            # process actually starts (inside the YARN container for
            # the YARN backend), so unit.startup_time measures the full
            # submission-to-execution latency of Figure 5's inset.
            result = yield from self.backend.execute(
                desc, allocation, on_start=_on_start, span=unit_span)
            self.backend.release(allocation)
            allocation = None
            # stage-out
            self._advance_unit(uid, UnitState.AGENT_STAGING_OUTPUT)
            _phase("stage_out")
            for path, nbytes in desc.output_staging:
                if self.site.scratch.exists(path):
                    self.site.scratch.delete(path)
                yield self.site.scratch.create(path, nbytes)
            self._advance_unit(uid, UnitState.DONE,
                               result=result, exit_code=0)
        except Interrupt:
            self._advance_unit(uid, UnitState.CANCELED)
        except ExecutionError as exc:
            self._advance_unit(uid, UnitState.FAILED,
                               stderr=str(exc), exit_code=1)
        except InvariantViolation:
            # A sanitizer finding is a bug in the *simulator*, not the
            # payload: recording it as a unit failure would bury the
            # invariant violation in a FAILED state.  Let it crash.
            raise
        except Exception as exc:  # payload bugs must not kill the agent
            self._advance_unit(uid, UnitState.FAILED,
                               stderr=repr(exc), exit_code=1)
        finally:
            del self._unit_procs[uid]
            if allocation is not None:
                self.backend.release(allocation)
            _phase(None)
            if tel is not None:
                tel.tracer.end(unit_span, final_state=doc["state"])

    # -------------------------------------------------------------- teardown
    def _teardown(self, final_state: PilotState):
        for proc in self._unit_procs.values():
            proc.interrupt(cause="pilot teardown")
        if self.backend is not None:
            yield from self.backend.teardown()
        if self.lrm is not None:
            self.lrm.teardown()
        if not PilotState(
                self._pilots.get(self.pilot_uid)["state"]).is_final:
            self._advance_pilot(final_state)
        tel = self.env.telemetry
        if tel is not None and self._pilot_span is not None:
            tel.tracer.end(self._pilot_span, final_state=final_state.value)
