"""ComputeUnit: the client-side unit handle."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.description import ComputeUnitDescription
from repro.core.states import UNIT_TRANSITIONS, StateHandle, UnitState
from repro.sim.engine import Environment, Event


class ComputeUnit(StateHandle):
    """Handle to a submitted Compute-Unit."""

    _transitions = UNIT_TRANSITIONS

    def __init__(self, env: Environment, uid: str,
                 description: ComputeUnitDescription):
        self.env = env
        self.uid = uid
        self.description = description
        self.state: UnitState = UnitState.NEW
        self.history: List[Tuple[float, UnitState]] = [
            (env.now, UnitState.NEW)]
        self.pilot_uid: Optional[str] = None
        self.result: Any = None
        self.exit_code: Optional[int] = None
        self.stderr: str = ""
        self._state_events: Optional[Dict[UnitState, Event]] = None
        self._final_event: Optional[Event] = None

    @property
    def startup_time(self) -> Optional[float]:
        """Submission-to-execution latency (the Figure 5 inset metric)."""
        t_exec = self.timestamp(UnitState.EXECUTING)
        t_new = self.timestamp(UnitState.NEW)
        if t_exec is None or t_new is None:
            return None
        return t_exec - t_new
