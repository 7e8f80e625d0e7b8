"""HdfsClient: the user-facing filesystem API (put/read/locations)."""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.cluster.network import Interconnect
from repro.hdfs.block import Block
from repro.hdfs.namenode import NameNode
from repro.sim.engine import Environment, SimulationError


class HdfsClient:
    """Client-side HDFS operations with locality-aware reads.

    All bulk operations are process generators: callers ``yield
    env.process(client.put(...))`` or yield them inside their own
    processes.  A client is bound to the node it runs on (``local_node``)
    so reads can prefer node-local replicas, and may be ``None`` for an
    off-cluster client (all traffic remote).
    """

    def __init__(self, env: Environment, namenode: NameNode,
                 network: Interconnect, local_node: Optional[str] = None):
        self.env = env
        self.namenode = namenode
        self.network = network
        self.local_node = local_node

    # ------------------------------------------------------------- writes
    def put(self, path: str, nbytes: float,
            payload_slices: Optional[Sequence[Any]] = None,
            block_size: Optional[float] = None):
        """Write a file of ``nbytes`` (optionally carrying real data).

        ``block_size`` sets a per-file block size (as HDFS allows at
        create time) — used e.g. to lay one logical chunk per block.

        Replicas are written through a pipeline as in HDFS: the client
        sends each block to the first target over the network, which
        stores it and forwards to the next; we model that as a network
        hop per remote replica plus a disk write per replica, blocks
        written sequentially (a single writer stream).
        """
        nn = self.namenode
        blocks = nn.split_into_blocks(path, nbytes, payload_slices,
                                      block_size=block_size)
        for block in blocks:
            targets = nn.choose_targets(writer_node=self.local_node)
            storage_types = nn.replica_storage_types(path, len(targets))
            source = self.local_node or "client"
            writes = []
            for dn, storage_type in zip(targets, storage_types, strict=True):
                if dn.name != source:
                    yield self.network.send(source, dn.name, block.nbytes)
                writes.append(dn.store(block, storage_type))
                source = dn.name  # pipeline forwards from this replica
            for w in writes:
                yield w
            nn.commit_block(block, [dn.name for dn in targets])
            tel = self.env.telemetry
            if tel is not None:
                # Bytes moved = every replica written (pipeline fan-out).
                tel.counter("hdfs.bytes_written").inc(
                    block.nbytes * len(targets))
        nn.commit_file(path, blocks)

    # -------------------------------------------------------------- reads
    def read(self, path: str):
        """Read a whole file, preferring local replicas.

        Blocks served by the same DataNode are fetched as one coalesced
        stream (one disk transfer per storage tier, one network hop for
        everything remote) instead of one read + one hop per block —
        the batched fast path for multi-block files.

        Returns (via process value) the list of block payloads in file
        order (``None`` entries for payload-less blocks).
        """
        nn = self.namenode
        meta = nn.file_meta(path)
        #: DataNode name -> (datanode, [block, ...]) in first-use order.
        by_datanode: dict = {}
        for block in meta.blocks:
            dn = self._pick_replica(block)
            entry = by_datanode.get(dn.name)
            if entry is None:
                entry = by_datanode[dn.name] = (dn, [])
            entry[1].append(block)
        total_bytes = 0.0
        for dn, blocks in by_datanode.values():
            yield dn.read_many([b.block_id for b in blocks])
            nbytes = sum(b.nbytes for b in blocks)
            total_bytes += nbytes
            if self.local_node is not None and dn.name != self.local_node:
                yield self.network.send_many(
                    dn.name, self.local_node, [b.nbytes for b in blocks])
        tel = self.env.telemetry
        if tel is not None and meta.blocks:
            tel.counter("hdfs.bytes_read").inc(total_bytes)
        return [block.payload for block in meta.blocks]

    def read_block(self, block: Block):
        """Read a single block (used by MapReduce input splits)."""
        dn = self._pick_replica(block)
        yield dn.read(block.block_id)
        if self.local_node is not None and dn.name != self.local_node:
            yield self.network.send(dn.name, self.local_node, block.nbytes)
        return block.payload

    def _pick_replica(self, block: Block):
        nn = self.namenode
        holders = [name for name in nn.block_map.get(block.block_id, ())
                   if (dn := nn.datanodes.get(name)) is not None and dn.alive
                   and dn.holds(block.block_id)]
        if not holders:
            raise SimulationError(
                f"no live replica of block {block.block_id} ({block.path})")
        if self.local_node in holders:
            return nn.datanodes[self.local_node]
        return nn.datanodes[holders[0]]

    # ---------------------------------------------------------- metadata
    def exists(self, path: str) -> bool:
        return self.namenode.exists(path)

    def delete(self, path: str) -> None:
        self.namenode.delete_file(path)

    def is_block_local(self, block: Block, node_name: str) -> bool:
        """Whether ``node_name`` holds a live replica of ``block``."""
        nn = self.namenode
        return node_name in nn.block_map.get(block.block_id, ()) and \
            nn.datanodes[node_name].alive and \
            nn.datanodes[node_name].holds(block.block_id)
