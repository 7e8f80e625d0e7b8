"""UnitManager: schedules Compute-Units onto pilots."""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.core.description import ComputeUnitDescription
from repro.core.pilot import ComputePilot
from repro.core.session import Session
from repro.core.states import PilotState, UnitState
from repro.core.unit import ComputeUnit
from repro.sim.engine import Event


class RoundRobinScheduler:
    """Default UM scheduler: deal units over pilots in turn."""

    def __init__(self):
        self._rr = itertools.count()

    def assign(self, unit: ComputeUnit,
               pilots: List[ComputePilot]) -> ComputePilot:
        usable = [p for p in pilots if not p.state.is_final]
        if not usable:
            raise RuntimeError("no usable pilots attached")
        return usable[next(self._rr) % len(usable)]


class BackfillScheduler:
    """Prefer ACTIVE pilots with the most idle capacity (simple greedy)."""

    def __init__(self):
        self._load: Dict[str, int] = {}

    def assign(self, unit: ComputeUnit,
               pilots: List[ComputePilot]) -> ComputePilot:
        usable = [p for p in pilots if not p.state.is_final]
        if not usable:
            raise RuntimeError("no usable pilots attached")
        active = [p for p in usable if p.state is PilotState.ACTIVE]
        pool = active or usable
        chosen = min(pool, key=lambda p: self._load.get(p.uid, 0))
        self._load[chosen.uid] = self._load.get(chosen.uid, 0) \
            + unit.description.cores
        return chosen


class PredictiveScheduler:
    """Completion-time-predicting scheduler (paper §V future work).

    Learns per-pilot unit service times with an exponentially-weighted
    moving average of observed executions, estimates each pilot's
    earliest completion time for the new unit as::

        ETA(pilot) = queued_core_seconds(pilot) / total_cores(pilot)
                     + predicted_duration(pilot, unit)

    and assigns the unit to the pilot with the smallest ETA.  With no
    history it falls back to capacity-proportional load balancing.
    ``observe`` is fed by the Unit-Manager as units finish.
    """

    def __init__(self, alpha: float = 0.3):
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._ewma: Dict[str, float] = {}          # pilot -> seconds/core-task
        self._queued_core_seconds: Dict[str, float] = {}

    # ------------------------------------------------------------ learning
    def observe(self, pilot_uid: str, duration: float, cores: int) -> None:
        """Record one finished unit's execution time."""
        per_core = duration  # duration already reflects the unit's cores
        previous = self._ewma.get(pilot_uid)
        self._ewma[pilot_uid] = per_core if previous is None else (
            self.alpha * per_core + (1 - self.alpha) * previous)
        backlog = self._queued_core_seconds.get(pilot_uid, 0.0)
        self._queued_core_seconds[pilot_uid] = max(
            0.0, backlog - duration * cores)

    def predicted_duration(self, pilot: ComputePilot) -> float:
        return self._ewma.get(pilot.uid, 60.0)

    # ----------------------------------------------------------- assigning
    def assign(self, unit: ComputeUnit,
               pilots: List[ComputePilot]) -> ComputePilot:
        usable = [p for p in pilots if not p.state.is_final]
        if not usable:
            raise RuntimeError("no usable pilots attached")

        def eta(pilot: ComputePilot) -> float:
            cores = pilot.agent_info.get("cores") or (
                pilot.description.nodes * 16)
            backlog = self._queued_core_seconds.get(pilot.uid, 0.0)
            service = self.predicted_duration(pilot)
            return backlog / max(1, cores) + service

        chosen = min(usable, key=eta)
        self._queued_core_seconds[chosen.uid] = (
            self._queued_core_seconds.get(chosen.uid, 0.0)
            + self.predicted_duration(chosen) * unit.description.cores)
        return chosen


class UnitManager:
    """Client-side unit lifecycle (paper Figure 3, steps U.1-U.2).

    Units are written to the shared DB assigned to a pilot; the agent
    picks them up at its next poll.  A watcher replays agent-side state
    changes onto the handles.

    With a :class:`~repro.faults.spec.RestartPolicy` the manager also
    owns client-side recovery: a FAILED unit is resubmitted under a
    fresh uid (same description) after capped exponential backoff, up
    to ``max_restarts`` times, optionally routed away from pilots where
    it already failed.  ``wait_units`` tracks the *logical* unit — the
    chain of restarts sharing one root — so callers block until the
    work item truly finishes, not merely until its first attempt dies.
    """

    def __init__(self, session: Session, scheduler=None,
                 restart_policy=None):
        self.session = session
        self.env = session.env
        self.uid = session.next_uid("umgr")
        self.scheduler = scheduler or RoundRobinScheduler()
        self.restart_policy = restart_policy
        if restart_policy is not None:
            restart_policy.validate()
        self.pilots: List[ComputePilot] = []
        self.units: Dict[str, ComputeUnit] = {}
        #: the units not yet final on their handle: what ``_sync`` walks
        #: (a unit leaves when its final state has been routed).
        self._live: Dict[str, ComputeUnit] = {}
        #: attempt uid -> root uid (the first attempt's uid).
        self._roots: Dict[str, str] = {}
        #: root uid -> event fired when the logical unit is final.
        self._logical: Dict[str, Event] = {}
        self._restarts_used: Dict[str, int] = {}
        self._failed_pilots_of: Dict[str, set] = {}
        self._first_failure_at: Dict[str, float] = {}
        self._watcher = self.env.process(self._watch_loop(),
                                         name=f"{self.uid}-watch")
        session.register_component(self)

    # -------------------------------------------------------------- pilots
    def add_pilots(self, pilots: Union[ComputePilot,
                                       Sequence[ComputePilot]]) -> None:
        if isinstance(pilots, ComputePilot):
            pilots = [pilots]
        self.pilots.extend(pilots)
        for pilot in pilots:
            self.env.process(self._pilot_watch(pilot),
                             name=f"{self.uid}-watch-{pilot.uid}")

    def _pilot_watch(self, pilot: ComputePilot):
        """Fail this manager's in-flight units when a pilot fails.

        The agent marks units it already claimed; this catches units
        stranded in the DB queue (never claimed because the pilot died
        during bootstrap) so the restart machinery can reroute them.
        Only active under a restart policy — without one, stranded
        units keep the legacy semantics (non-final until the client
        cancels or resubmits them).
        """
        yield pilot.wait()
        if pilot.state is not PilotState.FAILED:
            return
        if self.restart_policy is None:
            return
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("umgr", "pilot_failed", umgr=self.uid,
                     pilot=pilot.uid)
            tel.counter("umgr.pilot_failures").inc()
        col = self.session.db.collection("units")
        for uid in sorted(self._live):
            if self._live[uid].pilot_uid != pilot.uid:
                continue
            if UnitState(col.get(uid)["state"]).is_final:
                continue
            col.advance(uid, UnitState.FAILED, self.env.now,
                        stderr=f"pilot {pilot.uid} failed", exit_code=1)

    # --------------------------------------------------------------- units
    def submit_units(self, descriptions: Union[
            ComputeUnitDescription,
            Sequence[ComputeUnitDescription]]) -> List[ComputeUnit]:
        """Submit units; each is scheduled to a pilot and queued in the
        shared DB.  Returns the handles."""
        if isinstance(descriptions, ComputeUnitDescription):
            descriptions = [descriptions]
        if not self.pilots:
            raise RuntimeError("add_pilots() before submit_units()")
        handles = []
        for desc in descriptions:
            desc.validate()
            uid = self.session.next_uid("unit", width=6)
            unit = ComputeUnit(self.env, uid, desc)
            pilot = self.scheduler.assign(unit, self.pilots)
            unit.pilot_uid = pilot.uid
            self._roots[uid] = uid
            self._logical[uid] = Event(self.env)
            self._insert_unit(unit, pilot)
            handles.append(unit)
        return handles

    def _insert_unit(self, unit: ComputeUnit, pilot: ComputePilot) -> None:
        """Queue one unit in the shared DB, assigned to ``pilot``."""
        col = self.session.db.collection("units")
        uid = unit.uid
        self.units[uid] = self._live[uid] = unit
        col.insert({
            "_id": uid,
            "pilot": pilot.uid,
            "state": UnitState.NEW.value,
            "history": [(self.env.now, UnitState.NEW.value)],
            "description": unit.description,
            "result": None,
            "stderr": "",
            "exit_code": None,
        })
        col.advance(uid, UnitState.UMGR_SCHEDULING, self.env.now)
        col.enqueue(pilot.uid, uid)
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("unit", "submitted", uid=uid, pilot=pilot.uid,
                     umgr=self.uid, cores=unit.description.cores)
            tel.emit("unit", "state", uid=uid, pilot=pilot.uid,
                     state=UnitState.UMGR_SCHEDULING.value)
            tel.counter("umgr.units_submitted").inc()

    def wait_units(self, units: Optional[Iterable[ComputeUnit]] = None) -> Event:
        """Event firing when all given units (default: all) are final.

        Under a restart policy each unit is tracked as its *logical*
        work item: a handle that fails and is restarted keeps the event
        pending until the restarted attempt reaches a final state.
        """
        targets = list(units) if units is not None else \
            list(self.units.values())
        events, seen = [], set()
        for u in targets:
            root = self._roots.get(u.uid, u.uid)
            logical = self._logical.get(root)
            if logical is None:
                events.append(u.wait())
            elif root not in seen:
                seen.add(root)
                events.append(logical)
        return self.env.all_of(events)

    def final_unit(self, unit: ComputeUnit) -> ComputeUnit:
        """The last attempt of ``unit``'s restart chain (may be itself)."""
        root = self._roots.get(unit.uid, unit.uid)
        logical = self._logical.get(root)
        if logical is not None and logical.triggered:
            return logical.value
        return unit

    def snapshot_state(self) -> dict:
        """Checkpoint fingerprint: unit states + restart bookkeeping.

        Unit handles reduce to ``uid -> state``; together with the
        restart ledger this pins down the in-flight workload a restored
        process must have replayed to the same point.
        """
        return {"kind": "unit_manager", "uid": self.uid,
                "units": {uid: unit.state.value
                          for uid, unit in sorted(self.units.items())},
                "restarts_used": dict(sorted(
                    self._restarts_used.items())),
                "pilots": sorted(p.uid for p in self.pilots)}

    def cancel_units(self, units: Iterable[ComputeUnit]) -> None:
        """Cancel units that have not been claimed by an agent yet.

        Running units are canceled by pilot teardown; RP's semantics for
        mid-flight cancellation are likewise best-effort.
        """
        col = self.session.db.collection("units")
        for unit in units:
            if col.get(unit.uid)["state"] in (
                    UnitState.NEW.value, UnitState.UMGR_SCHEDULING.value):
                col.advance(unit.uid, UnitState.CANCELED, self.env.now)

    # ------------------------------------------------------------- watcher
    def _watch_loop(self):
        col = self.session.db.collection("units")
        while True:
            change = col.watch()
            self._sync()
            yield change

    def _sync(self) -> None:
        docs = self.session.db.collection("units").get_many(self._live)
        states = UnitState._value2member_map_
        settled = []
        for unit, doc in zip(self._live.values(), docs, strict=True):
            history = doc["history"]
            seen = len(unit.history)
            if len(history) == seen:
                continue
            for _, state_value in history[seen:]:
                unit.advance(states[state_value])
            if unit.state.is_final:
                # The single-writer protocol never extends a final
                # document's history: route it once, then stop looking.
                settled.append(unit.uid)
                unit.result = doc.get("result")
                unit.exit_code = doc.get("exit_code")
                unit.stderr = doc.get("stderr", "")
                self._feed_scheduler(unit)
                self._handle_final(unit)
        for uid in settled:
            del self._live[uid]

    # ------------------------------------------------------------- restarts
    def _handle_final(self, unit: ComputeUnit) -> None:
        """Route one finally-stated attempt: restart it or settle the
        logical unit's event."""
        root = self._roots.get(unit.uid, unit.uid)
        if unit.state is UnitState.FAILED and self._maybe_restart(unit, root):
            return
        logical = self._logical.get(root)
        if logical is None or logical.triggered:
            return
        tel = self.env.telemetry
        if tel is not None and self._restarts_used.get(root):
            if unit.state is UnitState.DONE:
                tel.histogram("umgr.unit_recovery_time").observe(
                    self.env.now - self._first_failure_at[root])
                tel.counter("umgr.units_recovered").inc()
            else:
                tel.counter("umgr.units_lost").inc()
        logical.succeed(unit)

    def _maybe_restart(self, unit: ComputeUnit, root: str) -> bool:
        policy = self.restart_policy
        if policy is None:
            return False
        used = self._restarts_used.get(root, 0)
        if used >= policy.max_restarts:
            return False
        if not any(not p.state.is_final for p in self.pilots):
            return False
        self._restarts_used[root] = used + 1
        self._first_failure_at.setdefault(root, self.env.now)
        if unit.pilot_uid is not None:
            self._failed_pilots_of.setdefault(root, set()).add(
                unit.pilot_uid)
        delay = policy.delay(used + 1)
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("unit", "restart_scheduled", uid=unit.uid, root=root,
                     attempt=used + 1, delay=delay, stderr=unit.stderr)
            tel.counter("umgr.units_restarted").inc()
        self.env.process(self._restart_later(unit, root, delay),
                         name=f"{self.uid}-restart-{unit.uid}")
        return True

    def _restart_later(self, unit: ComputeUnit, root: str, delay: float):
        yield self.env.timeout(delay if delay > 0 else 0.0)
        usable = [p for p in self.pilots if not p.state.is_final]
        logical = self._logical.get(root)
        if not usable:
            # every pilot died during the backoff: the logical unit
            # settles with the failed attempt.
            if logical is not None and not logical.triggered:
                logical.succeed(unit)
            return
        candidates = usable
        if self.restart_policy.route_away_from_failed_pilot:
            failed = self._failed_pilots_of.get(root, set())
            spared = [p for p in usable if p.uid not in failed]
            if spared:
                candidates = spared
        new_uid = self.session.next_uid("unit", width=6)
        new_unit = ComputeUnit(self.env, new_uid, unit.description)
        pilot = self.scheduler.assign(new_unit, candidates)
        new_unit.pilot_uid = pilot.uid
        self._roots[new_uid] = root
        faults = self.env.faults
        if faults is not None:
            faults.transfer_unit_error(unit.uid, new_uid)
        self._insert_unit(new_unit, pilot)
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("unit", "restarted", uid=new_uid,
                     restart_of=unit.uid, root=root, pilot=pilot.uid)

    def _feed_scheduler(self, unit: ComputeUnit) -> None:
        """Report an execution observation to learning schedulers."""
        observe = getattr(self.scheduler, "observe", None)
        if observe is None or unit.pilot_uid is None:
            return
        t_exec = unit.timestamp(UnitState.EXECUTING)
        t_done = unit.timestamp(UnitState.AGENT_STAGING_OUTPUT) \
            or unit.timestamp(UnitState.DONE)
        if t_exec is not None and t_done is not None:
            observe(unit.pilot_uid, t_done - t_exec,
                    unit.description.cores)
