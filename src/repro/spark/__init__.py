"""Spark: a functional standalone-mode Spark simulator.

The paper integrates Spark via its *standalone* deployment (§III-D):
RADICAL-Pilot's LRM boots a Master and per-node Workers, then
applications run against the cluster.  This package provides:

* :class:`SparkMaster` / :class:`SparkWorker` — the standalone cluster
  manager: worker registration, executor allocation per application,
  daemon start/stop costs (paid by the Mode I bootstrap), and
  ``sbin/stop-all.sh``-style shutdown.
* :class:`SparkContext` + :class:`RDD` — a real, lazy RDD engine:
  transformations build a lineage DAG; actions hand it to a DAG
  scheduler that cuts stages at shuffle boundaries and runs one task
  per partition on executor cores, with shuffle bytes charged to local
  disks and the interconnect (Spark's memory-centric caching via
  ``.cache()``).

Results are computed for real (Python data in partitions); time is
simulated.
"""

from repro.spark.cluster import SparkStandaloneCluster
from repro.spark.context import SparkConf, SparkContext
from repro.spark.master import ExecutorInfo, SparkMaster, SparkWorker
from repro.spark.rdd import RDD

__all__ = [
    "ExecutorInfo",
    "RDD",
    "SparkConf",
    "SparkContext",
    "SparkMaster",
    "SparkStandaloneCluster",
    "SparkWorker",
]
