"""YARN: a functional resource-manager simulator.

Reproduces the portions of Apache Hadoop YARN that the paper's system
touches:

* :class:`ResourceManager` — application lifecycle (NEW → SUBMITTED →
  ACCEPTED → RUNNING → FINISHED/FAILED/KILLED), heartbeat-driven
  FIFO scheduling driven by NodeManager heartbeats, container
  preemption, and a cluster-metrics API shaped like the RM REST API
  (the RADICAL-Pilot YARN scheduler polls it).
* :class:`NodeManager` — per-node capacity (memory + vcores), container
  launch (with modeled JVM spin-up), heartbeats that carry allocation
  opportunities, failure injection.
* :class:`AmContext` / the AM protocol — ``register`` / ``allocate`` /
  ``start_container`` / ``finish``; every allocation takes effect on a
  node-manager heartbeat, so the two-phase AM-then-task-container
  choreography exhibits the tens-of-seconds Compute-Unit startup the
  paper measures (Figure 5 inset).
* :class:`YarnClient` — ``yarn jar``-style submission (with the client
  JVM's own startup cost), application reports, kill.
"""

from repro.yarn.config import YarnConfig
from repro.yarn.records import (
    AppSpec,
    ApplicationState,
    Container,
    ContainerRequest,
    ContainerState,
    YarnResource,
)
from repro.yarn.node_manager import NodeManager
from repro.yarn.resource_manager import ResourceManager
from repro.yarn.application import AmContext
from repro.yarn.client import YarnClient
from repro.yarn.cluster import YarnCluster

__all__ = [
    "AmContext",
    "AppSpec",
    "ApplicationState",
    "Container",
    "ContainerRequest",
    "ContainerState",
    "NodeManager",
    "ResourceManager",
    "YarnClient",
    "YarnCluster",
    "YarnConfig",
    "YarnResource",
]
