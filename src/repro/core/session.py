"""Session: shared context for managers, DB and the site registry."""

from __future__ import annotations

from typing import Optional

from repro.analysis.sanitizer import SimSanitizer, sanitize_enabled
from repro.core.db import Database
from repro.saga.registry import Registry
from repro.sim.engine import Environment
from repro.sim.rng import SeedSequenceRegistry


class Session:
    """One RADICAL-Pilot session.

    Owns the simulation environment, the shared MongoDB stand-in, the
    SAGA site registry and the seeded RNG registry — everything the
    Pilot-Manager, Unit-Manager and agents need to find each other.

    ``sanitize`` arms the :class:`~repro.analysis.sanitizer.SimSanitizer`
    runtime invariant checkers on the session's environment; the
    default (``None``) inherits the ``REPRO_SANITIZE`` environment
    variable, and ``False`` forces them off.
    """

    def __init__(self, env: Environment,
                 registry: Registry,
                 db: Optional[Database] = None,
                 seed: int = 42,
                 sanitize: Optional[bool] = None):
        self.env = env
        # Derived from the seed, not a process-global counter: the uid
        # is cosmetic (repr/log labels; entity uids come from next_uid
        # below) and a counter would make it depend on how many
        # sessions ran earlier in the process.
        self.uid = f"session.{seed:04d}"
        self.registry = registry
        self.db = db or Database(env)
        self.rng = SeedSequenceRegistry(seed)
        # Plain ints (not itertools.count): a checkpoint snapshots the
        # counters directly instead of poking at iterator internals.
        self._uid_counters: dict[str, int] = {}
        #: How this session can be rebuilt in a fresh process — set by
        #: :func:`repro.persist.launch`; ``None`` means the session is
        #: not checkpointable (no cell kind to replay).
        self.provenance = None
        #: Persistence participants in construction order: managers and
        #: overlays register here so the checkpoint fingerprint walker
        #: reaches scheduler / unit / raptor state without a singleton.
        self.components: list = []
        #: The cell body :func:`repro.persist.launch` paused at its yield;
        #: ``repro.experiments.sweeps.finish(session.cell)`` drains the
        #: world and returns the cell's rows.  Rebuilt by replay, never
        #: serialized.
        self.cell = None
        if sanitize or (sanitize is None and sanitize_enabled()):
            SimSanitizer.install(env)
        elif sanitize is False and env.sanitizer is not None:
            # Explicit opt-out beats the REPRO_SANITIZE default, but a
            # sanitizer somebody installed by hand is left alone when
            # ``sanitize`` is None.
            SimSanitizer.uninstall(env)
        self.sanitizer = env.sanitizer
        self._pilot_manager = None
        self._unit_manager = None
        self._faults = None

    # ----------------------------------------------------------- the facade
    def pilot_manager(self, **kwargs):
        """The session's PilotManager (created on first use).

        With keyword arguments a *fresh* manager is returned; the no-arg
        call returns the session-scoped singleton.
        """
        from repro.core.pilot_manager import PilotManager
        if kwargs:
            return PilotManager(self, **kwargs)
        if self._pilot_manager is None:
            self._pilot_manager = PilotManager(self)
        return self._pilot_manager

    def unit_manager(self, restart_policy=None):
        """The session's UnitManager (created on first use).

        With a ``restart_policy`` a *fresh* manager is returned; the
        no-arg call returns the session-scoped singleton.
        """
        from repro.core.unit_manager import UnitManager
        if restart_policy is not None:
            return UnitManager(self, restart_policy=restart_policy)
        if self._unit_manager is None:
            self._unit_manager = UnitManager(self)
        return self._unit_manager

    @property
    def faults(self):
        """The session's :class:`~repro.faults.plan.FaultPlan`.

        First access installs the fault injector on the environment and
        binds it to the session's site registry.
        """
        if self._faults is None:
            from repro.faults.plan import FaultPlan
            self._faults = FaultPlan(session=self)
        return self._faults

    def raptor(self, pilot, workers: int = 4, cores_per_worker: int = 1,
               master_cores: int = 1, restart_policy=None, config=None,
               start: bool = True):
        """Build a :class:`~repro.raptor.overlay.RaptorOverlay` on
        ``pilot``: one long-lived master CU plus ``workers`` worker CUs,
        then stream function tasks to the warm workers — paying the
        2-step allocation cost once instead of per task.

        ``restart_policy`` (a :class:`~repro.faults.spec.RestartPolicy`)
        governs worker CU resubmission after node crashes; ``config`` is
        a :class:`~repro.raptor.task.RaptorConfig`.  ``start=False``
        returns the handle without submitting the CUs.
        """
        from repro.raptor.overlay import RaptorOverlay
        overlay = RaptorOverlay(
            self, pilot, workers=workers,
            cores_per_worker=cores_per_worker, master_cores=master_cores,
            restart_policy=restart_policy, config=config)
        self.register_component(overlay)
        if start:
            overlay.start()
        return overlay

    # ------------------------------------------------------- persistence
    def register_component(self, component) -> None:
        """Track ``component`` for the checkpoint fingerprint walk.

        Managers and overlays call this at construction; their
        ``snapshot_state()`` contributes to the state digest
        :mod:`repro.persist` verifies after a restore.
        """
        if not callable(getattr(component, "snapshot_state", None)):
            raise TypeError(
                f"{type(component).__name__} has no snapshot_state(); a "
                f"registered component must contribute to the checkpoint "
                f"fingerprint")
        if component not in self.components:
            self.components.append(component)

    def snapshot_state(self) -> dict:
        """Canonical summary of the session's own serializable state."""
        return {"uid": self.uid,
                "root_seed": self.rng.root_seed,
                "uid_counters": dict(self._uid_counters)}

    def checkpoint(self, path, ref: str = "latest"):
        """Checkpoint this session into the snapshot store at ``path``.

        Requires :attr:`provenance` (sessions built via
        :func:`repro.persist.launch`): the snapshot records the cell
        recipe plus the replay barrier and state digest; see
        :mod:`repro.persist`.  Returns the stored
        :class:`~repro.persist.checkpoint.CheckpointInfo`.
        """
        from repro.persist import checkpoint_session
        return checkpoint_session(self, path, ref=ref)

    @property
    def telemetry(self):
        """The environment's telemetry hub (installed on first access)."""
        import repro.telemetry
        return repro.telemetry.install(self.env)

    def next_uid(self, prefix: str, width: int = 4) -> str:
        """Session-scoped entity uids (``pilot.0001``, ``unit.000001``...).

        Scoped to the session — not a class or module counter — so a
        fresh session always numbers from 1 no matter what ran earlier
        in the process.  Entity uids seed named RNG streams (e.g. the
        agent bootstrap jitter), so session-scoped numbering is what
        makes independent experiment cells bitwise-reproducible whether
        they run sequentially, in any order, or on a process pool.
        """
        value = self._uid_counters.get(prefix, 0) + 1
        self._uid_counters[prefix] = value
        return f"{prefix}.{value:0{width}d}"
