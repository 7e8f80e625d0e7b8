"""BigJob-style services over the RADICAL-Pilot core."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.description import (
    AgentConfig,
    ComputePilotDescription,
    ComputeUnitDescription,
    DescriptionError,
)
from repro.core.pilot import ComputePilot
from repro.core.pilot_manager import PilotManager
from repro.core.session import Session
from repro.core.states import (
    COARSE_PILOT_STATES,
    COARSE_UNIT_STATES,
    PilotState,
)
from repro.core.unit import ComputeUnit
from repro.core.unit_manager import UnitManager


class PilotCompute:
    """BigJob's pilot handle: dict-in, string-states-out."""

    def __init__(self, pilot: ComputePilot, pmgr: PilotManager):
        self._pilot = pilot
        self._pmgr = pmgr

    def get_state(self) -> str:
        return COARSE_PILOT_STATES[self._pilot.state]

    def get_details(self) -> Dict[str, Any]:
        return {
            "uid": self._pilot.uid,
            "description": self._pilot.description,
            "state": self.get_state(),
            "agent": dict(self._pilot.agent_info),
        }

    def wait_active(self):
        """Event firing when the pilot can accept work.

        A bare kernel event (no polling process): the handle's per-state
        events fire straight from the Pilot-Manager's DB watcher.
        """
        return self._pilot.wait(PilotState.ACTIVE)

    def cancel(self) -> None:
        self._pmgr.cancel_pilot(self._pilot.uid)

    @property
    def native(self) -> ComputePilot:
        """Escape hatch to the RADICAL-Pilot handle."""
        return self._pilot


def _typed(d: Dict[str, Any], key: str, default: Any, caster,
           kind: str) -> Any:
    """Fetch + coerce one description value, or raise DescriptionError."""
    if key not in d:
        return default
    value = d[key]
    try:
        return caster(value)
    except (TypeError, ValueError):
        raise DescriptionError(
            f"bad {kind} description value for {key!r}: {value!r} "
            f"is not a valid {caster.__name__}") from None


def _pilot_description_from_dict(d: Dict[str, Any]) -> ComputePilotDescription:
    """Translate a BigJob pilot_compute_description dict.

    Unknown keys and uncoercible values raise
    :class:`~repro.core.description.DescriptionError` (a ``ValueError``
    subclass, so pre-convention call sites keep working).
    """
    unknown = set(d) - {"service_url", "number_of_nodes",
                        "number_of_processes", "walltime", "queue",
                        "project", "affinity_datacenter_label",
                        "working_directory", "lrm"}
    if unknown:
        raise DescriptionError(
            f"unknown pilot description keys: {sorted(unknown)}")
    if "service_url" not in d:
        raise DescriptionError("pilot description needs 'service_url'")
    if not isinstance(d["service_url"], str):
        raise DescriptionError(
            f"bad pilot description value for 'service_url': "
            f"{d['service_url']!r} is not a str")
    nodes = _typed(d, "number_of_nodes", None, int, "pilot")
    if nodes is None:
        # BigJob sizes pilots in processes; map to nodes conservatively
        processes = _typed(d, "number_of_processes", 1, int, "pilot")
        nodes = max(1, (processes + 15) // 16)
    return ComputePilotDescription(
        resource=d["service_url"],
        nodes=nodes,
        runtime=_typed(d, "walltime", 60, float, "pilot"),
        queue=d.get("queue", "normal"),
        project=d.get("project"),
        agent_config=AgentConfig(lrm=d.get("lrm", "fork"))).validate()


def _unit_description_from_dict(d: Dict[str, Any]) -> ComputeUnitDescription:
    """Translate a BigJob compute_unit_description dict.

    Unknown keys and uncoercible values raise
    :class:`~repro.core.description.DescriptionError`.
    """
    unknown = set(d) - {"executable", "arguments", "number_of_processes",
                        "spmd_variation", "output", "error",
                        "input_staging", "output_staging",
                        "cpu_seconds", "input_bytes", "output_bytes",
                        "function", "args", "kwargs", "memory_mb"}
    if unknown:
        raise DescriptionError(
            f"unknown unit description keys: {sorted(unknown)}")
    spmd = d.get("spmd_variation", "single")
    launch = "mpiexec" if spmd == "mpi" else None
    memory_mb = d.get("memory_mb")
    if memory_mb is not None:
        memory_mb = _typed(d, "memory_mb", None, int, "unit")
    return ComputeUnitDescription(
        executable=d.get("executable", "/bin/true"),
        arguments=tuple(d.get("arguments", ())),
        cores=_typed(d, "number_of_processes", 1, int, "unit"),
        memory_mb=memory_mb,
        cpu_seconds=_typed(d, "cpu_seconds", 0.0, float, "unit"),
        input_bytes=_typed(d, "input_bytes", 0.0, float, "unit"),
        output_bytes=_typed(d, "output_bytes", 0.0, float, "unit"),
        function=d.get("function"),
        args=tuple(d.get("args", ())),
        kwargs=dict(d.get("kwargs", {})),
        input_staging=tuple(d.get("input_staging", ())),
        output_staging=tuple(d.get("output_staging", ())),
        launch_method=launch).validate()


class PilotComputeService:
    """BigJob's pilot factory."""

    def __init__(self, session: Session):
        self.session = session
        self._pmgr = PilotManager(session)
        self.pilots: List[PilotCompute] = []

    def create_pilot(self, description: Dict[str, Any]) -> PilotCompute:
        pilot = self._pmgr.submit_pilot(
            _pilot_description_from_dict(description))
        handle = PilotCompute(pilot, self._pmgr)
        self.pilots.append(handle)
        return handle

    def cancel(self) -> None:
        """Cancel all pilots created by this service."""
        for handle in self.pilots:
            if not handle.native.state.is_final:
                handle.cancel()


class ComputeUnitHandle:
    """BigJob's compute-unit handle."""

    def __init__(self, unit: ComputeUnit):
        self._unit = unit

    def get_state(self) -> str:
        return COARSE_UNIT_STATES[self._unit.state]

    def get_result(self) -> Any:
        return self._unit.result

    def wait(self):
        """Event firing when the unit reaches a final state."""
        return self._unit.wait()

    @property
    def native(self) -> ComputeUnit:
        return self._unit


class ComputeDataService:
    """BigJob's work dispatcher: submit dict-described units, wait().

    (BigJob's CDS also matched Data-Units; the richer data-affinity
    path lives in :class:`repro.core.data.ComputeDataService` — this
    facade covers the compute side of the classic API.)
    """

    def __init__(self, session: Session):
        self.session = session
        self._umgr = UnitManager(session)
        self.units: List[ComputeUnitHandle] = []

    def add_pilot_compute_service(self, pcs: PilotComputeService) -> None:
        self._umgr.add_pilots([h.native for h in pcs.pilots])

    def submit_compute_unit(self, description: Dict[str, Any]
                            ) -> ComputeUnitHandle:
        units = self._umgr.submit_units(
            _unit_description_from_dict(description))
        handle = ComputeUnitHandle(units[0])
        self.units.append(handle)
        return handle

    def wait(self):
        """Event firing when every submitted unit is final.

        One composite kernel event over the units' logical state events
        — no sleep-loop polling, so the cost is O(outstanding units),
        not O(wait time / poll interval).
        """
        return self._umgr.wait_units([h.native for h in self.units])
