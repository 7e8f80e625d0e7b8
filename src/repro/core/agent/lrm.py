"""Local Resource Managers: allocation discovery + framework bootstrap.

The LRM is the agent component the paper extends (§III-C/III-D): the
base class parses the batch system's exported environment to find the
allocation's nodes; the YARN LRM additionally downloads, configures and
starts HDFS + YARN on those nodes (Mode I) or connects to the machine's
dedicated Hadoop environment (Mode II); the Spark LRM boots a
standalone Spark cluster.  Teardown stops the daemons and removes the
data directories, as the paper describes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.node import Node
from repro.core.description import AgentConfig
from repro.hdfs.cluster import HdfsCluster
from repro.rms.job import BatchJob
from repro.rms.slurm import expand_nodelist
from repro.saga.registry import Site
from repro.sim.engine import Environment, SimulationError
from repro.spark.cluster import SparkStandaloneCluster
from repro.yarn.cluster import YarnCluster
from repro.yarn.config import YarnConfig


def nodes_from_environment(site: Site, env_vars: Dict[str, str]) -> List[Node]:
    """Resolve the allocation's nodes from RMS environment variables.

    Understands the three dialects our batch systems export:
    ``SLURM_NODELIST`` (compressed hostlist), ``PBS_NODEFILE`` (one line
    per core) and ``PE_HOSTFILE`` (one line per node).
    """
    machine = site.machine
    if "SLURM_NODELIST" in env_vars:
        names = expand_nodelist(env_vars["SLURM_NODELIST"])
    elif "PBS_NODEFILE" in env_vars:
        seen: List[str] = []
        for line in env_vars["PBS_NODEFILE"].splitlines():
            name = line.strip()
            if name and name not in seen:
                seen.append(name)
        names = seen
    elif "PE_HOSTFILE" in env_vars:
        names = [line.split()[0]
                 for line in env_vars["PE_HOSTFILE"].splitlines() if line]
    else:
        raise SimulationError(
            "no recognizable RMS environment (need SLURM_NODELIST, "
            "PBS_NODEFILE or PE_HOSTFILE)")
    return [machine.node_by_name(n) for n in names]


class LocalResourceManager:
    """Base LRM: node discovery only (the 'fork' configuration)."""

    name = "fork"

    def __init__(self, env: Environment, site: Site, config: AgentConfig):
        self.env = env
        self.site = site
        self.config = config
        self.nodes: List[Node] = []
        #: seconds spent in mode-specific bootstrap (benchmark metric)
        self.setup_seconds: float = 0.0

    @property
    def total_cores(self) -> int:
        return sum(n.num_cores for n in self.nodes)

    def initialize(self, batch_job: BatchJob):
        """Discover the allocation; mode-specific bootstrap.  Generator."""
        self.nodes = nodes_from_environment(self.site, batch_job.env_vars)
        yield from self._bootstrap()

    def _bootstrap(self):
        if False:  # pragma: no cover - base LRM has no extra bootstrap
            yield None
        return

    def teardown(self) -> None:
        """Stop anything the bootstrap started."""


class YarnLrm(LocalResourceManager):
    """Mode I: spawn HDFS + YARN on the allocation (Hadoop on HPC).

    Bootstrap choreography, mirroring §III-C: download the Hadoop
    distribution, render the configuration files (core-site.xml,
    hdfs-site.xml, yarn-site.xml, mapred-site.xml, masters/slaves),
    start the HDFS daemons, start the YARN daemons; the agent node
    hosts NameNode + ResourceManager.
    """

    name = "yarn"

    def __init__(self, env: Environment, site: Site, config: AgentConfig,
                 yarn_config: Optional[YarnConfig] = None):
        super().__init__(env, site, config)
        base = yarn_config or config.yarn_config or YarnConfig()
        # JVM-bound costs scale with the machine's CPU speed.
        self.yarn_config = base.scaled(site.machine.spec.cpu_speed)
        self.hdfs: Optional[HdfsCluster] = None
        self.yarn: Optional[YarnCluster] = None
        self.rendered_configs: Dict[str, str] = {}

    def _bootstrap(self):
        t0 = self.env.now
        machine = self.site.machine
        # 1. download the Hadoop distribution
        yield self.env.timeout(
            machine.download_seconds(self.config.hadoop_dist_bytes))
        # 2. render configuration files
        self.rendered_configs = render_hadoop_configs(
            [n.name for n in self.nodes], self.yarn_config)
        yield self.env.timeout(self.config.configure_seconds)
        # 3. start HDFS (NameNode on the agent node, DataNodes everywhere).
        # The replication monitor only runs when fault injection is armed
        # on this environment: fault-free bootstraps keep the seed's
        # event stream (the monitor is silent but its wakeups are not).
        self.hdfs = HdfsCluster(
            self.env, machine, self.nodes,
            replication=self.config.hdfs_replication,
            rng=None, auto_heal=self.env.faults is not None)
        yield self.env.process(self.hdfs.start())
        # 4. start YARN (RM on the agent node, NMs everywhere)
        self.yarn = YarnCluster(self.env, machine, self.nodes,
                                config=self.yarn_config)
        yield self.env.process(self.yarn.start())
        self.setup_seconds = self.env.now - t0

    def teardown(self) -> None:
        """Stop daemons and remove the data directories (per §III-C)."""
        if self.yarn is not None:
            self.yarn.stop()
        if self.hdfs is not None:
            for path in list(self.hdfs.namenode.files):
                self.hdfs.namenode.delete_file(path)
            self.hdfs.stop()


class YarnConnectLrm(LocalResourceManager):
    """Mode II: connect to the machine's dedicated YARN cluster.

    No daemons to start — the LRM "solely collects the cluster resource
    information" (§III-C); the cost is a connect + metadata fetch.
    """

    name = "yarn-connect"

    def __init__(self, env: Environment, site: Site, config: AgentConfig):
        super().__init__(env, site, config)
        self.yarn: Optional[YarnCluster] = None

    def _bootstrap(self):
        if not self.site.machine.spec.has_dedicated_hadoop:
            raise SimulationError(
                f"{self.site.hostname} has no dedicated Hadoop "
                "environment; Mode II unavailable (use Mode I)")
        t0 = self.env.now
        yarn = getattr(self.site, "dedicated_yarn", None)
        if yarn is None:
            raise SimulationError(
                f"{self.site.hostname}: dedicated YARN cluster not "
                "provisioned (Site.provision_dedicated_hadoop())")
        yield self.env.timeout(self.config.connect_seconds)
        self.yarn = yarn
        self.setup_seconds = self.env.now - t0

    def teardown(self) -> None:
        """Nothing to stop: the dedicated cluster outlives the pilot."""


class SparkLrm(LocalResourceManager):
    """Spark standalone bootstrap (§III-D).

    Downloads dependencies (Java/Scala/Spark binaries), renders
    spark-env.sh / masters / slaves, starts Master + Workers; teardown
    runs the equivalent of ``sbin/stop-all.sh``.
    """

    name = "spark"

    def __init__(self, env: Environment, site: Site, config: AgentConfig):
        super().__init__(env, site, config)
        self.spark: Optional[SparkStandaloneCluster] = None

    def _bootstrap(self):
        t0 = self.env.now
        machine = self.site.machine
        yield self.env.timeout(
            machine.download_seconds(self.config.spark_dist_bytes))
        yield self.env.timeout(self.config.configure_seconds)
        self.spark = SparkStandaloneCluster(self.env, machine, self.nodes)
        yield self.env.process(self.spark.start())
        self.setup_seconds = self.env.now - t0

    def teardown(self) -> None:
        if self.spark is not None:
            self.spark.stop()


def render_hadoop_configs(node_names: List[str],
                          yarn_config: YarnConfig) -> Dict[str, str]:
    """Render the Hadoop config files the Mode I bootstrap writes.

    Returns file name -> XML/text content; consumed by our simulators
    only through their parameters, but kept textually faithful so tests
    (and humans) can inspect what a real deployment would have used.
    """
    master = node_names[0]

    def xml(properties: Dict[str, str]) -> str:
        body = "\n".join(
            f"  <property>\n    <name>{k}</name>\n"
            f"    <value>{v}</value>\n  </property>"
            for k, v in properties.items())
        return f"<configuration>\n{body}\n</configuration>\n"

    return {
        "core-site.xml": xml({
            "fs.defaultFS": f"hdfs://{master}:8020",
        }),
        "hdfs-site.xml": xml({
            "dfs.namenode.rpc-address": f"{master}:8020",
            "dfs.blocksize": str(128 * 1024 ** 2),
        }),
        "yarn-site.xml": xml({
            "yarn.resourcemanager.hostname": master,
            "yarn.nodemanager.resource.memory-mb": "per-node",
            "yarn.scheduler.minimum-allocation-mb":
                str(yarn_config.min_allocation_mb),
        }),
        "mapred-site.xml": xml({
            "mapreduce.framework.name": "yarn",
        }),
        "masters": master + "\n",
        "slaves": "\n".join(node_names) + "\n",
    }


LRM_TYPES = {
    "fork": LocalResourceManager,
    "yarn": YarnLrm,
    "yarn-connect": YarnConnectLrm,
    "spark": SparkLrm,
}


def make_lrm(kind: str, env: Environment, site: Site,
             config: AgentConfig) -> LocalResourceManager:
    try:
        cls = LRM_TYPES[kind]
    except KeyError:
        raise ValueError(f"unknown LRM kind {kind!r}") from None
    return cls(env, site, config)
