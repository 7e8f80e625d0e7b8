"""Framework plugins: the extensibility point of SAGA-Hadoop.

A plugin encapsulates "download, configure and start" for one
framework (paper §III-A): YARN (+HDFS) and Spark are provided; new
frameworks register via :func:`register_plugin`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.cluster.node import Node
from repro.core.agent.lrm import render_hadoop_configs
from repro.hdfs.cluster import HdfsCluster
from repro.saga.registry import Site
from repro.sim.engine import Environment
from repro.spark.cluster import SparkStandaloneCluster
from repro.yarn.cluster import YarnCluster
from repro.yarn.config import YarnConfig


class FrameworkPlugin:
    """Base plugin: download + configure + start one framework.

    Subclasses provide ``render_configs(nodes)``, the
    ``start_daemons(nodes)`` generator and ``stop()``.
    """

    name = "abstract"
    dist_bytes: float = 250 * 1024 ** 2
    configure_seconds: float = 5.0

    def __init__(self, env: Environment, site: Site):
        self.env = env
        self.site = site
        self.rendered_configs: Dict[str, str] = {}

    def bootstrap(self, nodes: List[Node]):
        """Download, render configs, start daemons.  Generator."""
        yield self.env.timeout(
            self.site.machine.download_seconds(self.dist_bytes))
        self.rendered_configs = self.render_configs(nodes)
        yield self.env.timeout(self.configure_seconds)
        yield from self.start_daemons(nodes)


class YarnPlugin(FrameworkPlugin):
    """YARN + HDFS on the allocation."""

    name = "yarn"

    def __init__(self, env: Environment, site: Site,
                 yarn_config: Optional[YarnConfig] = None):
        super().__init__(env, site)
        self.yarn_config = yarn_config or YarnConfig()
        self.hdfs: Optional[HdfsCluster] = None
        self.yarn: Optional[YarnCluster] = None

    def render_configs(self, nodes: List[Node]) -> Dict[str, str]:
        return render_hadoop_configs([n.name for n in nodes],
                                     self.yarn_config)

    def start_daemons(self, nodes: List[Node]):
        self.hdfs = HdfsCluster(self.env, self.site.machine, nodes,
                                replication=min(2, len(nodes)))
        yield self.env.process(self.hdfs.start())
        self.yarn = YarnCluster(self.env, self.site.machine, nodes,
                                config=self.yarn_config)
        yield self.env.process(self.yarn.start())

    def stop(self) -> None:
        if self.yarn is not None:
            self.yarn.stop()
        if self.hdfs is not None:
            self.hdfs.stop()


class SparkPlugin(FrameworkPlugin):
    """Standalone Spark on the allocation."""

    name = "spark"
    dist_bytes = 230 * 1024 ** 2

    def __init__(self, env: Environment, site: Site):
        super().__init__(env, site)
        self.spark: Optional[SparkStandaloneCluster] = None

    def render_configs(self, nodes: List[Node]) -> Dict[str, str]:
        names = [n.name for n in nodes]
        return {
            "spark-env.sh": f"SPARK_MASTER_HOST={names[0]}\n",
            "masters": names[0] + "\n",
            "slaves": "\n".join(names) + "\n",
        }

    def start_daemons(self, nodes: List[Node]):
        self.spark = SparkStandaloneCluster(self.env, self.site.machine,
                                            nodes)
        yield self.env.process(self.spark.start())

    def stop(self) -> None:
        if self.spark is not None:
            self.spark.stop()


_PLUGINS: Dict[str, Type[FrameworkPlugin]] = {
    "yarn": YarnPlugin,
    "spark": SparkPlugin,
}


def register_plugin(name: str, cls: Type[FrameworkPlugin]) -> None:
    """Add a new framework plugin (e.g. Flink)."""
    _PLUGINS[name] = cls


def make_plugin(name: str, env: Environment, site: Site) -> FrameworkPlugin:
    try:
        cls = _PLUGINS[name]
    except KeyError:
        raise ValueError(
            f"unknown framework {name!r}; known: {sorted(_PLUGINS)}"
        ) from None
    return cls(env, site)
