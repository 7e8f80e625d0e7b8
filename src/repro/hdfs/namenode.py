"""NameNode: namespace, block map, placement and replication policy."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.hdfs.block import Block
from repro.hdfs.datanode import ARCHIVE, DISK, RAM_DISK, DataNode
from repro.sim.engine import Environment, SimulationError
from repro.sim.rng import RngStream

#: Storage policies (HDFS names) -> replica storage-type layout.
#: The first entry is the first replica's type; the last entry repeats
#: for any further replicas.
STORAGE_POLICIES = {
    "HOT": (DISK,),                      # all replicas on DISK
    "WARM": (DISK, ARCHIVE),             # one hot copy, rest archived
    "COLD": (ARCHIVE,),                  # active archival storage
    "LAZY_PERSIST": (RAM_DISK, DISK),    # memory first, then disk
}


@dataclass
class FileMeta:
    """Namespace entry: ordered blocks of one file."""

    path: str
    blocks: List[Block] = field(default_factory=list)

    @property
    def nbytes(self) -> float:
        return sum(b.nbytes for b in self.blocks)


class NameNode:
    """The HDFS master: namespace + block map + placement decisions.

    Placement follows the default HDFS policy reduced to node level
    (the paper's clusters are single-rack from HDFS's perspective):
    first replica on the writer's node when it runs a DataNode,
    remaining replicas on distinct nodes chosen pseudo-randomly.
    """

    #: Modeled daemon startup cost (JVM + fsimage load), seconds.
    STARTUP_SECONDS = 12.0

    def __init__(self, env: Environment, replication: int = 3,
                 block_size: float = 128 * 1024 ** 2,
                 rng: Optional[RngStream] = None):
        if replication < 1:
            raise SimulationError("replication factor must be >= 1")
        if block_size <= 0:
            raise SimulationError("block size must be positive")
        self.env = env
        self.replication = replication
        self.block_size = float(block_size)
        self.rng = rng
        self.files: Dict[str, FileMeta] = {}
        self.block_map: Dict[int, List[str]] = {}   # block_id -> node names
        self.datanodes: Dict[str, DataNode] = {}
        self._block_ids = itertools.count(1)
        self.running = False
        #: path prefix -> storage policy (longest prefix wins)
        self.storage_policies: Dict[str, str] = {}
        # policy_for() runs once per block write; the prefix scan is
        # memoised per path and flushed when policies change.
        self._policy_cache: Dict[str, str] = {}

    # ------------------------------------------------------------ daemons
    def start(self):
        yield self.env.timeout(self.STARTUP_SECONDS)
        self.running = True

    def stop(self) -> None:
        self.running = False

    def register_datanode(self, datanode: DataNode) -> None:
        self.datanodes[datanode.name] = datanode

    def live_datanodes(self) -> List[DataNode]:
        return [dn for dn in self.datanodes.values() if dn.alive]

    # ---------------------------------------------------------- namespace
    def exists(self, path: str) -> bool:
        return path in self.files

    def file_meta(self, path: str) -> FileMeta:
        try:
            return self.files[path]
        except KeyError:
            raise FileNotFoundError(f"hdfs:{path}") from None

    def total_bytes(self) -> float:
        return sum(meta.nbytes for meta in self.files.values())

    def list_files(self, prefix: str = "/") -> List[str]:
        return sorted(p for p in self.files if p.startswith(prefix))

    # ----------------------------------------------------- storage policy
    def set_storage_policy(self, prefix: str, policy: str) -> None:
        """Attach a storage policy to a namespace subtree.

        Policies follow HDFS heterogeneous storage: HOT (default),
        WARM, COLD (active archival, paper §II) and LAZY_PERSIST.
        """
        if policy not in STORAGE_POLICIES:
            raise SimulationError(
                f"unknown storage policy {policy!r}; known: "
                f"{sorted(STORAGE_POLICIES)}")
        self.storage_policies[prefix] = policy
        self._policy_cache.clear()

    def policy_for(self, path: str) -> str:
        """Effective policy for a path (longest matching prefix)."""
        cached = self._policy_cache.get(path)
        if cached is not None:
            return cached
        best = ""
        policy = "HOT"
        for prefix, pol in self.storage_policies.items():
            if path.startswith(prefix) and len(prefix) > len(best):
                best, policy = prefix, pol
        self._policy_cache[path] = policy
        return policy

    def replica_storage_types(self, path: str, count: int) -> List[str]:
        """Storage type of each of a block's ``count`` replicas."""
        layout = STORAGE_POLICIES[self.policy_for(path)]
        return [layout[min(i, len(layout) - 1)] for i in range(count)]

    # ---------------------------------------------------------- placement
    def split_into_blocks(self, path: str, nbytes: float,
                          payload_slices: Optional[Sequence] = None,
                          block_size: Optional[float] = None) -> List[Block]:
        """Cut a file into blocks (last one ragged).

        ``block_size`` overrides the filesystem default for this file
        (HDFS allows per-file block sizes at create time).
        """
        if self.exists(path):
            raise FileExistsError(f"hdfs:{path}")
        bsize = float(block_size) if block_size else self.block_size
        if bsize <= 0:
            raise SimulationError("block size must be positive")
        blocks: List[Block] = []
        remaining = float(nbytes)
        index = 0
        while remaining > 0 or index == 0:
            size = min(bsize, remaining) if remaining > 0 else 0.0
            payload = None
            if payload_slices is not None and index < len(payload_slices):
                payload = payload_slices[index]
            blocks.append(Block(
                block_id=next(self._block_ids), path=path, index=index,
                nbytes=size, payload=payload))
            remaining -= size
            index += 1
            if remaining <= 0:
                break
        return blocks

    def choose_targets(self, writer_node: Optional[str] = None,
                       count: Optional[int] = None) -> List[DataNode]:
        """Pick DataNodes for a new block's replicas."""
        want = count if count is not None else self.replication
        live = self.live_datanodes()
        if not live:
            raise SimulationError("no live datanodes")
        want = min(want, len(live))
        targets: List[DataNode] = []
        if writer_node is not None:
            for dn in live:
                if dn.name == writer_node:
                    targets.append(dn)
                    break
        others = [dn for dn in live if dn not in targets]
        if self.rng is not None:
            self.rng.shuffle(others)
        targets.extend(others[:want - len(targets)])
        return targets

    def commit_block(self, block: Block, node_names: List[str]) -> None:
        """Record a block's replicas in the block map."""
        self.block_map[block.block_id] = list(node_names)
        sanitizer = self.env.sanitizer
        if sanitizer is not None:
            sanitizer.check_namenode(self)

    def commit_file(self, path: str, blocks: List[Block]) -> None:
        self.files[path] = FileMeta(path=path, blocks=list(blocks))
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("hdfs", "file_committed", path=path,
                     nbytes=self.files[path].nbytes, blocks=len(blocks))

    def delete_file(self, path: str) -> None:
        meta = self.file_meta(path)
        for block in meta.blocks:
            for node_name in self.block_map.pop(block.block_id, ()):
                dn = self.datanodes.get(node_name)
                if dn is not None:
                    dn.drop(block.block_id)
        del self.files[path]
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("hdfs", "file_deleted", path=path)
        sanitizer = self.env.sanitizer
        if sanitizer is not None:
            sanitizer.check_namenode(self)

    # --------------------------------------------------------- replication
    def under_replicated(self) -> List[Block]:
        """Blocks with fewer live replicas than the target factor."""
        # The achievable replica count depends only on the live DN set,
        # so it is computed once, not per block.
        target = min(self.replication, len(self.live_datanodes()))
        missing: List[Block] = []
        for meta in self.files.values():
            for block in meta.blocks:
                live = self._live_replica_nodes(block.block_id)
                if len(live) < target:
                    missing.append(block)
        return missing

    def _live_replica_nodes(self, block_id: int) -> List[str]:
        return [name for name in self.block_map.get(block_id, ())
                if (dn := self.datanodes.get(name)) is not None and dn.alive
                and dn.holds(block_id)]

    def replication_factor_of(self, path: str) -> int:
        """Smallest live replica count over a file's blocks."""
        meta = self.file_meta(path)
        return min((len(self._live_replica_nodes(b.block_id))
                    for b in meta.blocks), default=0)

    def replication_monitor(self, interval: float = 3.0,
                            dn_timeout: float = 10.0):
        """Heartbeat-timeout DataNode failure detection.  Process generator.

        The paper's stack assumes HDFS absorbs node loss; this is the
        NameNode-side loop that makes it true in the simulation: every
        ``interval`` seconds each registered DataNode is checked, one
        that has been unreachable for ``dn_timeout`` seconds is declared
        lost, and its blocks are re-replicated from surviving copies
        (:meth:`handle_datanode_loss`).  MTTR — failure to restored
        replication — lands in the ``hdfs.rereplication_mttr``
        histogram.  Runs until :meth:`stop`; started by
        :class:`~repro.hdfs.cluster.HdfsCluster` when ``auto_heal`` is
        on.
        """
        suspected: Dict[str, float] = {}
        handled: set = set()
        while self.running:
            yield self.env.timeout(interval)
            if not self.running:
                return
            for name in sorted(self.datanodes):
                dn = self.datanodes[name]
                if dn.alive:
                    suspected.pop(name, None)
                    handled.discard(name)
                    continue
                if name in handled:
                    continue
                first_seen = suspected.setdefault(name, self.env.now)
                if self.env.now - first_seen < dn_timeout:
                    continue
                handled.add(name)
                failed_at = dn.failed_at
                if failed_at is None:
                    failed_at = first_seen
                tel = self.env.telemetry
                if tel is not None:
                    tel.emit("hdfs", "datanode_lost", node=name,
                             detected_after=self.env.now - failed_at)
                    tel.counter("hdfs.datanodes_lost").inc()
                yield from self.handle_datanode_loss(name)
                if tel is not None:
                    mttr = self.env.now - failed_at
                    tel.histogram("hdfs.rereplication_mttr").observe(mttr)
                    tel.emit("hdfs", "rereplication_complete", node=name,
                             mttr=mttr)

    def handle_datanode_loss(self, node_name: str):
        """Re-replicate blocks lost with a DataNode.  Process generator.

        Copies each under-replicated block from a surviving replica to
        a fresh target, paying read + write I/O.
        """
        for block in self.under_replicated():
            sources = self._live_replica_nodes(block.block_id)
            if not sources:
                continue  # block irrecoverably lost
            current = set(sources)
            candidates = [dn for dn in self.live_datanodes()
                          if dn.name not in current]
            if not candidates:
                continue
            if self.rng is not None:
                target = self.rng.choice(candidates)
            else:
                target = candidates[0]
            source_dn = self.datanodes[sources[0]]
            yield source_dn.read(block.block_id)
            yield target.store(block)
            self.block_map[block.block_id] = [
                n for n in self.block_map[block.block_id] if n != node_name
            ] + [target.name]
            sanitizer = self.env.sanitizer
            if sanitizer is not None:
                sanitizer.check_namenode(self)
            tel = self.env.telemetry
            if tel is not None:
                tel.counter("hdfs.bytes_rereplicated").inc(block.nbytes)
                tel.emit("hdfs", "rereplicated",
                         block_id=block.block_id, nbytes=block.nbytes,
                         source=source_dn.name, target=target.name,
                         lost_node=node_name)
