"""Spark standalone cluster manager: Master and Workers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cluster.node import Node
from repro.sim.engine import Environment, SimulationError
from repro.sim.resources import Resource


@dataclass
class ExecutorInfo:
    """One executor granted to an application."""

    executor_id: str
    node: Node
    cores: int
    memory_bytes: float
    #: task-slot gate: capacity == cores
    slots: Resource = None  # type: ignore[assignment]


class SparkWorker:
    """Per-node worker daemon: offers cores+memory, launches executors."""

    #: Daemon startup (JVM), seconds.
    STARTUP_SECONDS = 3.0
    #: Executor launch (JVM + scheduler registration), seconds.
    EXECUTOR_LAUNCH_SECONDS = 4.0

    def __init__(self, env: Environment, node: Node):
        self.env = env
        self.node = node
        self.cores_free = node.num_cores
        self.memory_free = node.memory_bytes
        self.running = False

    def start(self):
        yield self.env.timeout(self.STARTUP_SECONDS)
        self.running = True

    def stop(self) -> None:
        self.running = False


class SparkMaster:
    """The standalone Master: tracks workers, grants executors.

    ``request_executors`` implements the default spread-out allocation:
    executors are placed round-robin across workers with free capacity,
    each with ``executor_cores`` cores and ``executor_memory`` bytes.
    """

    #: Daemon startup (JVM), seconds.
    STARTUP_SECONDS = 4.0

    def __init__(self, env: Environment):
        self.env = env
        self.workers: List[SparkWorker] = []
        self.running = False
        self._executor_seq = 0
        self._granted: Dict[str, List[ExecutorInfo]] = {}

    def start(self):
        yield self.env.timeout(self.STARTUP_SECONDS)
        self.running = True

    def stop(self) -> None:
        """``sbin/stop-all.sh``: stop master and all workers."""
        for worker in self.workers:
            worker.stop()
        self.running = False

    def register_worker(self, worker: SparkWorker) -> None:
        self.workers.append(worker)

    @property
    def total_cores(self) -> int:
        return sum(w.node.num_cores for w in self.workers if w.running)

    def request_executors(self, app_id: str, count: int,
                          executor_cores: int, executor_memory: float):
        """Allocate ``count`` executors, spread out.  Generator.

        Returns the granted :class:`ExecutorInfo` list (may be shorter
        than ``count`` if the cluster lacks capacity, as in real Spark).
        """
        if not self.running:
            raise SimulationError("spark master not running")
        granted: List[ExecutorInfo] = []
        live = [w for w in self.workers if w.running]
        idx = 0
        attempts = 0
        while len(granted) < count and attempts < count * max(1, len(live)):
            attempts += 1
            if not live:
                break
            worker = live[idx % len(live)]
            idx += 1
            if (worker.cores_free >= executor_cores
                    and worker.memory_free >= executor_memory):
                worker.cores_free -= executor_cores
                worker.memory_free -= executor_memory
                self._executor_seq += 1
                granted.append(ExecutorInfo(
                    executor_id=f"exec-{self._executor_seq}",
                    node=worker.node, cores=executor_cores,
                    memory_bytes=executor_memory,
                    slots=Resource(self.env, capacity=executor_cores)))
        if granted:
            # Executors launch in parallel on their workers.
            yield self.env.timeout(SparkWorker.EXECUTOR_LAUNCH_SECONDS)
        self._granted.setdefault(app_id, []).extend(granted)
        return granted

    def release_executors(self, app_id: str) -> None:
        """Return an application's executors to the workers."""
        for info in self._granted.pop(app_id, []):
            for worker in self.workers:
                if worker.node is info.node:
                    worker.cores_free += info.cores
                    worker.memory_free += info.memory_bytes
                    break
