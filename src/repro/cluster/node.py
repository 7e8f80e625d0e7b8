"""A compute node: cores, memory, local disk."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cluster.storage import StorageSpec, StorageVolume
from repro.sim.engine import Environment, Event, Interrupt, SimulationError
from repro.sim.resources import Level, Resource


class NodeDied(RuntimeError):
    """The node died while a :meth:`Node.hold` was in flight."""


class Node:
    """One compute node of a :class:`~repro.cluster.machine.Machine`.

    Cores are a counted :class:`Resource` (the agent schedulers count
    ``num_cores`` themselves); memory is a :class:`Level` drained by
    running tasks; the local disk is a private
    :class:`StorageVolume` (the asset YARN's shuffle exploits in the
    paper's Figure 6).
    """

    def __init__(self, env: Environment, name: str, cores: int,
                 memory_bytes: float, local_disk: StorageSpec,
                 cpu_speed: float = 1.0):
        if cores <= 0:
            raise SimulationError(f"node needs >=1 core, got {cores}")
        if memory_bytes <= 0:
            raise SimulationError("node memory must be positive")
        if cpu_speed <= 0:
            raise SimulationError("cpu speed factor must be positive")
        self.env = env
        self.name = name
        self.num_cores = cores
        self.memory_bytes = float(memory_bytes)
        self.cpu_speed = float(cpu_speed)
        # The per-node sub-objects (core Resource, memory Level, disk
        # and memfs StorageVolumes) are built lazily on first access:
        # their constructors are passive (no events, no env mutation),
        # so laziness is observationally identical — and a 10k-node
        # machine no longer pays ~40k object constructions up front
        # when most nodes only ever serve core-count arithmetic.
        self._local_disk_spec = local_disk
        self._cores: Optional[Resource] = None
        self._memory: Optional[Level] = None
        self._local_disk: Optional[StorageVolume] = None
        self._memory_fs: Optional[StorageVolume] = None
        self.alive = True
        #: Failure timestamp of the most recent :meth:`fail` (MTTR base).
        self.failed_at: Optional[float] = None
        self._base_cpu_speed = self.cpu_speed
        self._failure: Optional[Event] = None
        #: Synchronous liveness observers (see :meth:`watch_liveness`);
        #: lets capacity ledgers track alive-flips incrementally instead
        #: of rescanning every node.
        self._liveness_watchers: List[Callable[["Node"], None]] = []
        #: Processes inside :meth:`hold`, as an insertion-ordered set.
        self._holding: dict = {}

    @property
    def cores(self) -> Resource:
        """Counted core slots (lazily built)."""
        if self._cores is None:
            self._cores = Resource(self.env, capacity=self.num_cores)
        return self._cores

    @property
    def memory(self) -> Level:
        """Memory level drained by running tasks (lazily built)."""
        if self._memory is None:
            self._memory = Level(self.env, capacity=self.memory_bytes,
                                 init=self.memory_bytes)
        return self._memory

    @property
    def local_disk(self) -> StorageVolume:
        """Private node-local storage volume (lazily built)."""
        if self._local_disk is None:
            self._local_disk = StorageVolume(self.env,
                                             self._local_disk_spec)
        return self._local_disk

    @property
    def memory_fs(self) -> StorageVolume:
        """In-memory storage tier (Tachyon/Alluxio-style): RAM-speed
        reads/writes, capacity capped at a quarter of node memory.
        Iterative workloads cache working sets here (paper §V).
        Lazily built."""
        if self._memory_fs is None:
            self._memory_fs = StorageVolume(self.env, StorageSpec(
                name=f"{self.name}-memfs",
                aggregate_bw=4 * 1024 ** 3,
                per_stream_bw=2 * 1024 ** 3,
                latency=1e-5,
                capacity=self.memory_bytes * 0.25))
        return self._memory_fs

    @property
    def cores_in_use(self) -> int:
        """Cores currently held by tasks."""
        cores = self._cores
        return cores.count if cores is not None else 0

    @property
    def cores_free(self) -> int:
        return self.num_cores - self.cores_in_use

    def compute_seconds(self, abstract_work: float) -> float:
        """Convert machine-neutral work units into node-local seconds.

        ``abstract_work`` is expressed in reference-CPU seconds; faster
        nodes (``cpu_speed`` > 1) finish sooner.
        """
        return abstract_work / self.cpu_speed

    def fail(self) -> None:
        """Mark the node dead (failure-injection hooks).

        Fires :meth:`failure_event`, whose first subscriber interrupts
        every in-flight :meth:`hold`, so executing tasks observe the
        crash at the exact injection instant.
        """
        self.alive = False
        self.failed_at = self.env.now
        if self._failure is not None and not self._failure.triggered:
            self._failure.succeed(self)
        for watcher in self._liveness_watchers:
            watcher(self)

    def recover(self) -> None:
        self.alive = True
        if self._failure is not None and self._failure.triggered:
            self._failure = None
        for watcher in self._liveness_watchers:
            watcher(self)

    def watch_liveness(self, callback: Callable[["Node"], None]) -> None:
        """Call ``callback(node)`` synchronously after every
        :meth:`fail` / :meth:`recover` alive-flip."""
        self._liveness_watchers.append(callback)

    def failure_event(self) -> Event:
        """An event that fires when this node dies.

        Already-dead nodes return a freshly-triggered event, so waiters
        resume immediately.  After :meth:`recover` a new pending event
        is handed out for the next failure.
        """
        if not self.alive:
            return Event(self.env).succeed(self)
        if self._failure is None or self._failure.triggered:
            self._failure = Event(self.env)
            self._failure.callbacks.append(self._kill_holders)
        return self._failure

    def hold(self, seconds: float):
        """``yield from`` inside a process: occupy the node for
        ``seconds`` (one bare timeout); raise :class:`NodeDied` if it
        dies first, which :meth:`_kill_holders` delivers.  Interrupts
        from anyone else pass through unchanged.  Tie rule: a hold whose
        timeout has popped has completed — a crash at the instant it
        expires fires the failure event after that timeout."""
        if not self.alive:
            raise NodeDied(f"node {self.name} is down")
        if self._failure is None:
            self.failure_event()
        proc = self.env.active_process
        self._holding[proc] = None
        try:
            yield self.env.timeout(seconds)
        except Interrupt as interrupt:
            if interrupt.cause is self:
                raise NodeDied(f"node {self.name} died") from None
            raise
        finally:
            del self._holding[proc]

    def _kill_holders(self, _failure: Event) -> None:
        """Interrupt every in-flight :meth:`hold`, in entry order."""
        for proc in list(self._holding):
            proc.interrupt(self)

    def slow_down(self, factor: float) -> None:
        """Straggler injection: run ``factor``x slower than baseline.

        Only affects compute phases *starting* after the call — in-flight
        phases were priced at entry, matching a CPU that degrades between
        tasks (thermal throttling, noisy neighbour).
        """
        if factor < 1:
            raise SimulationError(
                f"straggler factor must be >= 1, got {factor}")
        self.cpu_speed = self._base_cpu_speed / factor

    def restore_speed(self) -> None:
        """End a straggler episode: back to the baseline speed."""
        self.cpu_speed = self._base_cpu_speed
