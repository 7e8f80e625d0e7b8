"""Descriptions: what users ask for (pilots, units, agent behaviour).

Every describe-object in the repo — pilot and unit descriptions here,
the data descriptions in :mod:`repro.core.data`, the fault specs in
:mod:`repro.faults` — follows one keyword-validated dataclass
convention: a plain ``@dataclass`` whose fields are the public surface,
with a shared ``validate()`` entry point that raises
:class:`DescriptionError` on bad values and returns ``self`` so calls
chain.  ``from_dict`` builds a description from keyword mappings and
rejects unknown keys, and ``replace`` clones with changes; both
validate the result.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple


class DescriptionError(ValueError):
    """A describe-object failed validation.

    Subclasses :class:`ValueError` so call sites that predate the
    unified convention keep working.
    """


@dataclass
class Description:
    """Base for all describe-objects: the shared validation convention.

    Subclasses implement ``_check()`` using :meth:`_require`; user code
    calls :meth:`validate` (or gets it called for them on submission).
    """

    def validate(self) -> "Description":
        """Check all fields; raise :class:`DescriptionError` if invalid."""
        self._check()
        return self

    @staticmethod
    def _require(condition: bool, message: str) -> None:
        if not condition:
            raise DescriptionError(message)

    @classmethod
    def from_dict(cls, mapping: Dict[str, Any]) -> "Description":
        """Build and validate a description from a keyword mapping."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise DescriptionError(
                f"unknown {cls.__name__} fields: {', '.join(unknown)}")
        instance = cls(**mapping)
        instance.validate()
        return instance

    def replace(self, **changes: Any) -> "Description":
        """Clone with ``changes`` applied; the clone is validated."""
        try:
            clone = dataclasses.replace(self, **changes)
        except TypeError as exc:
            raise DescriptionError(str(exc)) from None
        clone.validate()
        return clone


@dataclass
class AgentConfig(Description):
    """How the RADICAL-Pilot-Agent behaves on the allocation.

    ``lrm`` picks the Local Resource Manager:

    * ``"fork"`` — plain HPC execution on the allocated nodes (the
      baseline RADICAL-Pilot of the paper's experiments);
    * ``"yarn"`` — **Mode I**: bootstrap HDFS + YARN on the allocation,
      then execute units as YARN applications;
    * ``"yarn-connect"`` — **Mode II**: connect to the machine's
      dedicated YARN cluster (e.g. Wrangler's data portal environment);
    * ``"spark"`` — bootstrap a standalone Spark cluster.
    """

    lrm: str = "fork"
    #: Agent poll interval for new units in the shared DB (seconds).
    db_poll_interval: float = 1.0
    #: Base bootstrap cost: virtualenv, module loads, component start.
    bootstrap_seconds: float = 40.0
    #: MongoDB connection setup.
    db_connect_seconds: float = 2.0
    #: Re-use the YARN Application Master across units (paper §III-C
    #: names this as the planned optimization; ablation A3 measures it).
    reuse_application_master: bool = False
    #: Hadoop distribution tarball size (downloaded in Mode I).
    hadoop_dist_bytes: float = 250 * 1024 ** 2
    #: Spark distribution tarball size.
    spark_dist_bytes: float = 230 * 1024 ** 2
    #: Seconds to render *-site.xml / spark-env.sh etc.
    configure_seconds: float = 5.0
    #: Mode II connect + cluster-info collection.
    connect_seconds: float = 3.0
    #: HDFS replication inside Mode I clusters (small allocations).
    hdfs_replication: int = 2
    #: Task spawner overhead per unit (env setup script, fork/exec).
    spawn_overhead_seconds: float = 2.0
    #: Bytes each task reads to start its environment (interpreter,
    #: shared libraries, Python imports).  Plain pilots read this from
    #: the shared filesystem — a famously contended operation at scale
    #: on Lustre — while YARN/Spark tasks localize from the node disk.
    task_environment_bytes: float = 0.0
    #: Memory per YARN task container when the unit does not say.
    default_unit_memory_mb: int = 2048
    #: Core placement for the continuous scheduler: "pack" (RP default)
    #: or "spread" (even across nodes — the paper's task/node ratios).
    scheduler_policy: str = "pack"
    #: YARN settings for the Mode I cluster (None = YARN defaults).
    #: Typed loosely to keep descriptions import-light; must be a
    #: :class:`repro.yarn.config.YarnConfig` when set.
    yarn_config: Optional[Any] = None

    def _check(self) -> None:
        if self.lrm not in ("fork", "yarn", "yarn-connect", "spark"):
            raise DescriptionError(f"unknown LRM {self.lrm!r}")
        self._require(self.scheduler_policy in ("pack", "spread"),
                      f"unknown scheduler policy {self.scheduler_policy!r}")
        self._require(self.db_poll_interval > 0,
                      "db_poll_interval must be positive")
        self._require(self.hdfs_replication >= 1,
                      "hdfs_replication must be >= 1")


@dataclass
class ComputePilotDescription(Description):
    """Resource request for one pilot (mirrors RP's attributes)."""

    resource: str                 # SAGA URL, e.g. "slurm://stampede"
    nodes: int = 1
    runtime: float = 60.0         # minutes, as in RP
    queue: str = "normal"
    project: Optional[str] = None
    agent_config: AgentConfig = field(default_factory=AgentConfig)

    def _check(self) -> None:
        self._require(self.nodes >= 1, "pilot needs >= 1 node")
        self._require(self.runtime > 0, "runtime must be positive")
        if self.agent_config.lrm not in (
                "fork", "yarn", "yarn-connect", "spark"):
            raise DescriptionError(
                f"unknown LRM {self.agent_config.lrm!r}")
        self.agent_config.validate()


@dataclass
class ComputeUnitDescription(Description):
    """One self-contained piece of work (mirrors RP's CU description).

    The simulation extensions:

    * ``cpu_seconds`` — abstract reference-CPU seconds of compute; the
      agent divides by (cores x node speed) for the modeled duration.
    * ``input_bytes`` / ``output_bytes`` — bulk I/O the unit performs,
      charged to whatever storage the executing backend uses (Lustre
      for plain pilots, node-local disk for YARN — the crux of
      Figure 6).
    * ``function``/``args`` — an optional real Python callable executed
      eagerly; its return value lands on ``unit.result``.
    * ``service`` — turns the unit into a long-lived *service*: a
      callable taking a :class:`~repro.core.agent.executor.ServiceContext`
      and returning a generator that the backend runs as the unit's
      whole EXECUTING phase (e.g. a raptor master or worker parking on
      its node).  Mutually exclusive with ``function``.
    """

    executable: str = "/bin/true"
    arguments: Tuple[str, ...] = ()
    cores: int = 1
    memory_mb: Optional[int] = None
    cpu_seconds: float = 0.0
    input_bytes: float = 0.0
    output_bytes: float = 0.0
    function: Optional[Callable[..., Any]] = None
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    #: long-lived service payload: ``service(ctx)`` must return a
    #: generator the backend drives for the unit's EXECUTING phase
    service: Optional[Callable[..., Any]] = None
    #: staging directives: (catalog_path, nbytes) pairs
    input_staging: Tuple[Tuple[str, float], ...] = ()
    output_staging: Tuple[Tuple[str, float], ...] = ()
    #: launch-method hint: "fork" | "mpiexec" | "aprun" | "docker" |
    #: None = agent picks
    launch_method: Optional[str] = None
    #: where the unit's bulk input lives: "default" (the backend's
    #: storage — Lustre for plain pilots, local disk for YARN/Spark) or
    #: "memory" (the node's Tachyon-style in-memory tier, for cached
    #: working sets of iterative algorithms, paper §V).
    input_tier: str = "default"
    name: str = ""

    def _check(self) -> None:
        self._require(self.cores >= 1, "unit needs >= 1 core")
        self._require(
            self.cpu_seconds >= 0 and self.input_bytes >= 0
            and self.output_bytes >= 0,
            "unit costs must be non-negative")
        self._require(self.input_tier in ("default", "memory"),
                      f"unknown input tier {self.input_tier!r}")
        self._require(self.service is None or self.function is None,
                      "a unit is either a service or a function payload")
