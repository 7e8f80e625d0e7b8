"""repro.api: the single public entry point.

Everything a simulation script needs lives here — the session facade,
managers, description objects, fault injection and the simulation
environment::

    from repro.api import (AgentConfig, ComputePilotDescription,
                           ComputeUnitDescription, Environment,
                           RestartPolicy, Session)

    env = Environment()
    session = Session(env)
    pmgr = session.pilot_manager()
    umgr = session.unit_manager(restart_policy=RestartPolicy())
    session.faults.node_crash(at=120.0, node="c251-101")
"""

from repro.core.data import (
    ComputeDataService,
    DataUnit,
    DataUnitDescription,
    PilotData,
    PilotDataDescription,
)
from repro.core.db import Database
from repro.core.description import (
    AgentConfig,
    ComputePilotDescription,
    ComputeUnitDescription,
    Description,
    DescriptionError,
)
from repro.core.pilot import ComputePilot
from repro.core.pilot_manager import PilotManager
from repro.core.session import Session
from repro.core.states import PilotState, UnitState
from repro.core.unit import ComputeUnit
from repro.core.unit_manager import (
    BackfillScheduler,
    PredictiveScheduler,
    RoundRobinScheduler,
    UnitManager,
)
from repro.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RestartPolicy,
)
from repro.raptor import (
    RaptorConfig,
    RaptorOverlay,
    TaskDescription,
    TaskFuture,
    TaskResult,
)
from repro.core.states import ServiceState
from repro.experiments.sweeps import Sweep, SweepRun
from repro.persist import (
    CheckpointInfo,
    JournalError,
    PersistError,
    RestoreMismatch,
    SchemaDrift,
    SnapshotStore,
    StoreError,
    SweepJournal,
    checkpoint_session,
    launch,
    restore,
    scenario,
    scenario_names,
    state_digest,
    state_fingerprint,
)
from repro.saga.registry import Registry, Site, default_registry
from repro.service import (
    PilotService,
    ServiceConfig,
    ServiceSession,
    TenantQuota,
    Ticket,
)
from repro.sim.engine import Environment, SimulationError

__all__ = [
    "AgentConfig",
    "BackfillScheduler",
    "CheckpointInfo",
    "ComputeDataService",
    "ComputePilot",
    "ComputePilotDescription",
    "ComputeUnit",
    "ComputeUnitDescription",
    "Database",
    "DataUnit",
    "DataUnitDescription",
    "Description",
    "DescriptionError",
    "Environment",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "JournalError",
    "PersistError",
    "PilotData",
    "PilotDataDescription",
    "PilotManager",
    "PilotService",
    "PilotState",
    "PredictiveScheduler",
    "RaptorConfig",
    "RaptorOverlay",
    "Registry",
    "RestartPolicy",
    "RestoreMismatch",
    "RoundRobinScheduler",
    "SchemaDrift",
    "ServiceConfig",
    "ServiceSession",
    "ServiceState",
    "Session",
    "SimulationError",
    "Site",
    "SnapshotStore",
    "StoreError",
    "Sweep",
    "SweepJournal",
    "SweepRun",
    "TaskDescription",
    "TaskFuture",
    "TaskResult",
    "TenantQuota",
    "Ticket",
    "UnitManager",
    "UnitState",
    "checkpoint_session",
    "default_registry",
    "launch",
    "restore",
    "scenario",
    "scenario_names",
    "state_digest",
    "state_fingerprint",
]
