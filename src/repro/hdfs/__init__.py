"""HDFS: a functional Hadoop Distributed File System simulator.

Implements the pieces of HDFS the paper's system exercises:

* :class:`NameNode` — namespace, block map, placement policy (writer-
  local first replica, remaining replicas on distinct random nodes),
  replication monitoring and re-replication after DataNode loss.
* :class:`DataNode` — block storage on a node's local disk volume,
  heartbeats, failure injection.
* :class:`HdfsCluster` — wiring + daemon start/stop with modeled
  startup cost (paid by the Mode I LRM bootstrap).
* :class:`HdfsClient` — ``put``/``read``/``delete``/``block_locations``;
  reads prefer a node-local replica, which is the data-locality signal
  application masters schedule against.

Files may carry a real Python payload (e.g. a NumPy array of K-Means
points) alongside their simulated byte size, so MapReduce jobs compute
real results while I/O time is modeled.
"""

from repro.hdfs.block import Block
from repro.hdfs.cluster import HdfsCluster
from repro.hdfs.datanode import DataNode
from repro.hdfs.filesystem import HdfsClient
from repro.hdfs.namenode import FileMeta, NameNode

__all__ = [
    "Block",
    "DataNode",
    "FileMeta",
    "HdfsClient",
    "HdfsCluster",
    "NameNode",
]
