"""DataNode: block storage on a compute node's storage tiers.

Implements HDFS heterogeneous storage (paper §II: "the newly added
HDFS heterogeneous storage support is suitable for supporting this
[active archival] use case"): every DataNode exposes three storage
types —

* ``DISK``     — the node's local disk (the default tier);
* ``ARCHIVE``  — a large, slow archival volume (dense spindles);
* ``RAM_DISK`` — the node's memory tier (LAZY_PERSIST writes).

The NameNode's storage *policies* decide which type each replica of a
file lands on.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.cluster.node import Node
from repro.cluster.storage import StorageSpec, StorageVolume
from repro.hdfs.block import Block
from repro.sim.engine import Environment, Event, SimulationError

#: Storage types, named as in HDFS.
DISK = "DISK"
ARCHIVE = "ARCHIVE"
RAM_DISK = "RAM_DISK"
STORAGE_TYPES = (DISK, ARCHIVE, RAM_DISK)


class DataNode:
    """Stores block replicas on one node's storage tiers.

    The DataNode owns no namespace — the NameNode tracks which replicas
    live where; the DataNode just moves bytes through its volume pipes
    and answers "do you hold block X".
    """

    #: Modeled daemon startup cost (JVM + block report), seconds.
    STARTUP_SECONDS = 8.0

    def __init__(self, env: Environment, node: Node,
                 archive_spec: Optional[StorageSpec] = None):
        self.env = env
        self.node = node
        self.blocks: Dict[int, Block] = {}
        #: block_id -> storage type holding the replica
        self.block_storage: Dict[int, str] = {}
        self.running = False
        self.bytes_written = 0.0
        self.bytes_read = 0.0
        #: When :meth:`fail` hit (MTTR base for re-replication).
        self.failed_at: Optional[float] = None
        # ARCHIVE: dense, slow spindles — 10x the local capacity at a
        # third of the bandwidth unless specified explicitly.
        local = node.local_disk.spec
        self.archive = StorageVolume(env, archive_spec or StorageSpec(
            name=f"{node.name}-archive",
            aggregate_bw=local.aggregate_bw / 3,
            per_stream_bw=(local.per_stream_bw or local.aggregate_bw) / 3,
            latency=local.latency * 2,
            capacity=local.capacity * 10))

    def volume(self, storage_type: str) -> StorageVolume:
        """The volume backing one storage type."""
        if storage_type == DISK:
            return self.node.local_disk
        if storage_type == ARCHIVE:
            return self.archive
        if storage_type == RAM_DISK:
            return self.node.memory_fs
        raise SimulationError(f"unknown storage type {storage_type!r}")

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def alive(self) -> bool:
        return self.running and self.node.alive

    def start(self):
        """Daemon startup; a process-able generator."""
        yield self.env.timeout(self.STARTUP_SECONDS)
        self.running = True

    def stop(self) -> None:
        self.running = False

    def store(self, block: Block, storage_type: str = DISK) -> Event:
        """Write one replica to the given tier; completion event."""
        if not self.alive:
            raise SimulationError(f"datanode {self.name} is down")
        if block.block_id in self.blocks:
            raise SimulationError(
                f"datanode {self.name} already holds block {block.block_id}")
        volume = self.volume(storage_type)
        self.blocks[block.block_id] = block
        self.block_storage[block.block_id] = storage_type
        self.bytes_written += block.nbytes
        return volume.write(block.nbytes)

    def read(self, block_id: int) -> Event:
        """Read a replica from its tier; completion event."""
        if not self.alive:
            raise SimulationError(f"datanode {self.name} is down")
        block = self.blocks.get(block_id)
        if block is None:
            raise SimulationError(
                f"datanode {self.name} does not hold block {block_id}")
        self.bytes_read += block.nbytes
        return self.volume(self.block_storage[block_id]).read(block.nbytes)

    def read_many(self, block_ids: Iterable[int]) -> Event:
        """Read several co-located replicas as coalesced streams.

        One volume transfer per storage tier holding any of the blocks
        (one latency charge and one event per tier, not per block) —
        the batched path for whole-file reads.
        """
        if not self.alive:
            raise SimulationError(f"datanode {self.name} is down")
        sizes_by_tier: Dict[str, list] = {}
        for block_id in block_ids:
            block = self.blocks.get(block_id)
            if block is None:
                raise SimulationError(
                    f"datanode {self.name} does not hold block {block_id}")
            self.bytes_read += block.nbytes
            sizes_by_tier.setdefault(
                self.block_storage[block_id], []).append(block.nbytes)
        events = [self.volume(tier).read_many(sizes)
                  for tier, sizes in sizes_by_tier.items()]
        if len(events) == 1:
            return events[0]
        return self.env.all_of(events)

    def storage_type_of(self, block_id: int) -> Optional[str]:
        """Which tier holds this replica (None if absent)."""
        return self.block_storage.get(block_id)

    def drop(self, block_id: int) -> None:
        """Delete a replica (metadata + capacity)."""
        block = self.blocks.pop(block_id, None)
        if block is not None:
            storage_type = self.block_storage.pop(block.block_id, DISK)
            self.volume(storage_type).delete(block.nbytes)

    def holds(self, block_id: int) -> bool:
        return block_id in self.blocks

    def fail(self) -> None:
        """Crash the daemon; its replicas are lost.

        Every replica's bytes are released back to the tier volume's
        capacity ledger and the local metadata is cleared — so a later
        ``delete_file`` on the NameNode cannot double-free, and the
        sanitizer's replica/capacity checks stay exact.  Emits the
        telemetry the YARN ``node_failed`` path already has.
        """
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("hdfs", "datanode_failed", node=self.name,
                     blocks=len(self.blocks),
                     nbytes=sum(b.nbytes for b in self.blocks.values()))
            tel.counter("hdfs.datanode.failures").inc()
        for block_id, block in list(self.blocks.items()):
            storage_type = self.block_storage.pop(block_id, DISK)
            self.volume(storage_type).delete(block.nbytes)
        self.blocks.clear()
        self.running = False
        self.failed_at = self.env.now
