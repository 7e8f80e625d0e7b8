"""ComputePilot: the client-side pilot handle."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.description import ComputePilotDescription
from repro.core.states import PILOT_TRANSITIONS, PilotState, StateHandle
from repro.sim.engine import Environment, Event


class ComputePilot(StateHandle):
    """Handle to a submitted pilot.

    State changes flow from the agent through the shared DB; the
    Pilot-Manager's watcher replays them onto this handle, firing the
    per-state events that ``wait()`` exposes.
    """

    _transitions = PILOT_TRANSITIONS

    def __init__(self, env: Environment, uid: str,
                 description: ComputePilotDescription):
        self.env = env
        self.uid = uid
        self.description = description
        self.state: PilotState = PilotState.NEW
        self.history: List[Tuple[float, PilotState]] = [
            (env.now, PilotState.NEW)]
        self._state_events: Optional[Dict[PilotState, Event]] = None
        self._final_event: Optional[Event] = None
        #: populated once ACTIVE: agent-side metrics for the benchmarks
        self.agent_info: Dict[str, float] = {}

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ComputePilot {self.uid} {self.state.value}>"
