"""Pilot and Compute-Unit state models (after RADICAL-Pilot's)."""

from __future__ import annotations

import enum
from typing import Dict, Optional

from repro.sim.engine import Event


class PilotState(enum.Enum):
    """Lifecycle of a ComputePilot.

    ``NEW -> PENDING_LAUNCH -> LAUNCHING -> PENDING_ACTIVE -> ACTIVE``
    then one of ``DONE`` (walltime/agent exit), ``CANCELED``, ``FAILED``.
    """

    NEW = "New"
    PENDING_LAUNCH = "PendingLaunch"
    LAUNCHING = "Launching"
    PENDING_ACTIVE = "PendingActive"
    ACTIVE = "Active"
    DONE = "Done"
    CANCELED = "Canceled"
    FAILED = "Failed"

    @property
    def is_final(self) -> bool:
        return self in (PilotState.DONE, PilotState.CANCELED,
                        PilotState.FAILED)


PILOT_TRANSITIONS = {
    PilotState.NEW: {PilotState.PENDING_LAUNCH, PilotState.CANCELED},
    PilotState.PENDING_LAUNCH: {PilotState.LAUNCHING, PilotState.CANCELED,
                                PilotState.FAILED},
    PilotState.LAUNCHING: {PilotState.PENDING_ACTIVE, PilotState.CANCELED,
                           PilotState.FAILED},
    PilotState.PENDING_ACTIVE: {PilotState.ACTIVE, PilotState.CANCELED,
                                PilotState.FAILED},
    PilotState.ACTIVE: {PilotState.DONE, PilotState.CANCELED,
                        PilotState.FAILED},
}


class UnitState(enum.Enum):
    """Lifecycle of a Compute-Unit.

    ``NEW -> UMGR_SCHEDULING -> AGENT_STAGING_INPUT ->
    AGENT_SCHEDULING -> EXECUTING -> AGENT_STAGING_OUTPUT -> DONE``
    with ``FAILED``/``CANCELED`` reachable from any non-final state.
    """

    NEW = "New"
    UMGR_SCHEDULING = "UmgrScheduling"
    AGENT_STAGING_INPUT = "AgentStagingInput"
    AGENT_SCHEDULING = "AgentScheduling"
    EXECUTING = "Executing"
    AGENT_STAGING_OUTPUT = "AgentStagingOutput"
    DONE = "Done"
    CANCELED = "Canceled"
    FAILED = "Failed"

    @property
    def is_final(self) -> bool:
        return self in (UnitState.DONE, UnitState.CANCELED, UnitState.FAILED)


_UNIT_ORDER = [
    UnitState.NEW, UnitState.UMGR_SCHEDULING, UnitState.AGENT_STAGING_INPUT,
    UnitState.AGENT_SCHEDULING, UnitState.EXECUTING,
    UnitState.AGENT_STAGING_OUTPUT, UnitState.DONE,
]

UNIT_TRANSITIONS = {
    state: {_UNIT_ORDER[i + 1], UnitState.FAILED, UnitState.CANCELED}
    for i, state in enumerate(_UNIT_ORDER[:-1])
}


class ServiceState:
    """Coarse Pilot-API state strings (the BigJob vocabulary).

    The first-generation Pilot-API exposed six string states; both the
    :mod:`repro.pilot_api` facade and the :mod:`repro.service` query
    surface report them.
    """

    UNKNOWN = "Unknown"
    NEW = "New"
    RUNNING = "Running"
    DONE = "Done"
    CANCELED = "Canceled"
    FAILED = "Failed"

    FINAL = (DONE, CANCELED, FAILED)

    @classmethod
    def is_final(cls, state: str) -> bool:
        return state in cls.FINAL


#: Fine-grained pilot state -> coarse Pilot-API string.
COARSE_PILOT_STATES = {
    PilotState.NEW: ServiceState.NEW,
    PilotState.PENDING_LAUNCH: ServiceState.NEW,
    PilotState.LAUNCHING: ServiceState.NEW,
    PilotState.PENDING_ACTIVE: ServiceState.NEW,
    PilotState.ACTIVE: ServiceState.RUNNING,
    PilotState.DONE: ServiceState.DONE,
    PilotState.CANCELED: ServiceState.CANCELED,
    PilotState.FAILED: ServiceState.FAILED,
}

#: Fine-grained unit state -> coarse Pilot-API string.
COARSE_UNIT_STATES = {
    UnitState.NEW: ServiceState.NEW,
    UnitState.UMGR_SCHEDULING: ServiceState.NEW,
    UnitState.AGENT_STAGING_INPUT: ServiceState.NEW,
    UnitState.AGENT_SCHEDULING: ServiceState.NEW,
    UnitState.EXECUTING: ServiceState.RUNNING,
    UnitState.AGENT_STAGING_OUTPUT: ServiceState.RUNNING,
    UnitState.DONE: ServiceState.DONE,
    UnitState.CANCELED: ServiceState.CANCELED,
    UnitState.FAILED: ServiceState.FAILED,
}


def check_transition(table, current, new) -> None:
    """Raise ``ValueError`` unless ``current -> new`` is in ``table``."""
    if new not in table.get(current, ()):
        raise ValueError(
            f"illegal transition {current.value} -> {new.value}")


class StateHandle:
    """The state machine behind :class:`ComputeUnit` / :class:`ComputePilot`.

    A mixin: the handle's ``__init__`` declares ``env``, ``state``,
    ``history``, ``_state_events = None`` and ``_final_event = None``
    (kept there so the snapshot audit sees them typed) and the class
    names its ``_transitions`` table.

    Events exist only while someone waits: :meth:`wait` creates the
    event for a state (or for "any final state") on first request and
    :meth:`advance` fires it only if present, so a handle nobody
    observes schedules nothing.
    """

    _transitions: Dict = {}

    def advance(self, new_state) -> None:
        """Apply one state transition (legality-checked)."""
        check_transition(self._transitions, self.state, new_state)
        self.state = new_state
        self.history.append((self.env.now, new_state))
        if self._state_events is not None:
            event = self._state_events.get(new_state)
            if event is not None and not event.triggered:
                event.succeed(self)
        final = self._final_event
        if final is not None and new_state.is_final \
                and not final.triggered:
            final.succeed(self)

    def wait(self, state=None) -> Event:
        """Event firing when the handle reaches ``state`` (or any final).

        A state already in ``history`` yields an event that fires at
        the current simulated time, so late waiters never block.
        """
        if state is None:
            event = self._final_event
            if event is None:
                event = self._final_event = Event(self.env)
                if self.state.is_final:
                    event.succeed(self)
            return event
        if self._state_events is None:
            self._state_events = {}
        event = self._state_events.get(state)
        if event is None:
            event = self._state_events[state] = Event(self.env)
            if self.timestamp(state) is not None:
                event.succeed(self)
        return event

    def timestamp(self, state) -> Optional[float]:
        """When the handle first entered ``state`` (None if never)."""
        for t, s in self.history:
            if s is state:
                return t
        return None
