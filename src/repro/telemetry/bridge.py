"""Bridge from the live event stream to the post-hoc profiler.

:mod:`repro.core.profiler` analyses unit/pilot *handle histories* after
a run.  The bridge reconstructs equivalent histories from ``unit.state``
bus events as they happen, so the same analysis
functions (``unit_phases``, ``phase_means``, ``concurrency_series``,
``peak_concurrency``) work mid-run, on the agent side, or in a process
that never saw the client handles at all.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.states import UnitState
from repro.telemetry.bus import EventBus, TelemetryEvent


class LiveUnitView:
    """History-compatible stand-in for a :class:`ComputeUnit` handle."""

    def __init__(self, uid: str):
        self.uid = uid
        self.pilot_uid: Optional[str] = None
        self.history: List[Tuple[float, UnitState]] = []

    def advance(self, time: float, state: UnitState) -> None:
        self.history.append((time, state))

    def timestamp(self, state: UnitState) -> Optional[float]:
        for t, s in self.history:
            if s is state:
                return t
        return None


class ProfilerBridge:
    """Subscribes to unit state-transition events and keeps live views.

    Usage::

        bridge = ProfilerBridge(telemetry.bus)
        ...  # run (part of) the simulation
        means = profiler.phase_means(bridge.units())
        series = profiler.concurrency_series(bridge.units())
    """

    def __init__(self, bus: EventBus, replay: bool = True):
        self.bus = bus
        self._units: Dict[str, LiveUnitView] = {}
        bus.subscribe(self._on_event, categories=("unit",), names=("state",))
        if replay:
            for event in bus.select("unit", "state"):
                self._on_event(event)

    # ----------------------------------------------------------- ingest
    def _on_event(self, event: TelemetryEvent) -> None:
        uid = event.payload.get("uid")
        if uid is None:
            return
        view = self._units.get(uid)
        if view is None:
            view = self._units[uid] = LiveUnitView(uid)
            view.pilot_uid = event.payload.get("pilot")
        view.advance(event.time, UnitState(event.payload["state"]))

    # ---------------------------------------------------------- queries
    def units(self) -> List[LiveUnitView]:
        return list(self._units.values())
