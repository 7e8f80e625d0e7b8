"""Machine templates: cluster-level hardware descriptions.

Factory functions reproduce the paper's testbeds plus two
leadership-class machines for the weak-scaling scenarios:

* :func:`stampede` — TACC Stampede: 16 cores / 32 GB per node, slow
  local spindles, Lustre `$SCRATCH`, reference-speed CPUs.
* :func:`wrangler` — TACC Wrangler: 48 cores / 128 GB per node, fast
  local flash, a larger Lustre allocation, ~1.6x faster cores, and a
  *dedicated Hadoop environment* (reachable via Mode II, as provided by
  Wrangler's data portal reservation mechanism).
* :func:`frontera` — TACC Frontera: 56 cores / 192 GB per node, the
  1k-10k-node weak-scaling workhorse.
* :func:`summit` — OLCF Summit: 42 cores / 512 GB per node with NVMe
  burst buffers; defaults to the full 4608-node machine.

All constants are centralized in :class:`MachineSpec` so the experiment
harness can sweep them (ablations, sensitivity runs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from repro.cluster.network import Interconnect
from repro.cluster.node import Node
from repro.cluster.storage import GB, MB, StorageSpec, StorageVolume
from repro.sim.engine import Environment, SimulationError


@dataclass(frozen=True)
class MachineSpec:
    """Static description of a cluster."""

    name: str
    num_nodes: int
    cores_per_node: int
    memory_per_node: float          # bytes
    cpu_speed: float                # relative to the reference core
    local_disk: StorageSpec
    shared_fs: StorageSpec
    backbone_bw: float              # bytes/s
    link_bw: float                  # bytes/s
    net_latency: float              # seconds
    download_bw: float              # bytes/s from the outside world
    has_dedicated_hadoop: bool = False

    def with_nodes(self, num_nodes: int) -> "MachineSpec":
        """A copy of this spec with a different node count."""
        return replace(self, num_nodes=num_nodes)


class Machine:
    """Instantiated cluster hardware bound to a simulation environment."""

    def __init__(self, env: Environment, spec: MachineSpec):
        if spec.num_nodes <= 0:
            raise SimulationError("machine needs >=1 node")
        self.env = env
        self.spec = spec
        self.nodes: List[Node] = [
            Node(env, name=f"{spec.name}-n{i:04d}",
                 cores=spec.cores_per_node,
                 memory_bytes=spec.memory_per_node,
                 local_disk=spec.local_disk,
                 cpu_speed=spec.cpu_speed)
            for i in range(spec.num_nodes)
        ]
        self.shared_fs = StorageVolume(env, spec.shared_fs)
        self._node_index = {node.name: node for node in self.nodes}
        self.network = Interconnect(
            env, backbone_bw=spec.backbone_bw, link_bw=spec.link_bw,
            latency=spec.net_latency)
        faults = env.faults
        if faults is not None:
            faults.register_machine(self)

    @property
    def name(self) -> str:
        return self.spec.name

    def node_by_name(self, name: str) -> Node:
        """Look up a node; raises on unknown names.

        O(1): the YARN executor resolves the node of every container it
        launches, which made the old linear scan quadratic in machine
        size across a large run.
        """
        node = self._node_index.get(name)
        if node is None:
            raise KeyError(f"no node {name!r} on {self.name}")
        return node

    def download_seconds(self, nbytes: float) -> float:
        """Time to fetch ``nbytes`` from the outside world (Hadoop tarball)."""
        return nbytes / self.spec.download_bw


def stampede(num_nodes: int = 4) -> MachineSpec:
    """TACC Stampede template (paper §IV): 16 cores / 32 GB per node.

    A compute-optimized Beowulf machine: bulk I/O goes through a shared
    Lustre scratch with visible contention; node-local disks are small
    and slow (they exist for the OS image); CPUs define the reference
    speed 1.0.
    """
    return MachineSpec(
        name="stampede",
        num_nodes=num_nodes,
        cores_per_node=16,
        memory_per_node=32 * GB,
        cpu_speed=1.0,
        local_disk=StorageSpec(
            name="stampede-localdisk", aggregate_bw=90 * MB,
            per_stream_bw=90 * MB, latency=0.008, capacity=80 * GB),
        shared_fs=StorageSpec(
            name="stampede-lustre", aggregate_bw=650 * MB,
            per_stream_bw=250 * MB, latency=0.030, capacity=400 * GB),
        backbone_bw=40 * GB,
        link_bw=5 * GB,
        net_latency=5e-6,
        download_bw=12 * MB,
        has_dedicated_hadoop=False,
    )


def frontera(num_nodes: int = 1024) -> MachineSpec:
    """TACC Frontera template: 56 cores / 192 GB per node.

    The leadership-class successor of Stampede (same center, same
    Lustre-centric design), used for the weak-scaling scenarios at
    1k-10k nodes: modest node-local SSDs, a wide scratch filesystem,
    and CPUs ~1.8x the Stampede reference speed.
    """
    return MachineSpec(
        name="frontera",
        num_nodes=num_nodes,
        cores_per_node=56,
        memory_per_node=192 * GB,
        cpu_speed=1.8,
        local_disk=StorageSpec(
            name="frontera-ssd", aggregate_bw=400 * MB,
            per_stream_bw=400 * MB, latency=0.0004, capacity=144 * GB),
        shared_fs=StorageSpec(
            name="frontera-lustre", aggregate_bw=120 * GB,
            per_stream_bw=3 * GB, latency=0.015, capacity=50_000 * GB),
        backbone_bw=200 * GB,
        link_bw=12 * GB,
        net_latency=2e-6,
        download_bw=100 * MB,
        has_dedicated_hadoop=False,
    )


def summit(num_nodes: int = 4608) -> MachineSpec:
    """OLCF Summit template: 42 cores / 512 GB per node.

    A leadership-class machine in the style arXiv:2103.00091
    characterizes pilots on: fat memory, fast node-local NVMe burst
    buffers, a center-wide GPFS, and ~2.2x-reference CPUs.  The default
    node count is the full machine.
    """
    return MachineSpec(
        name="summit",
        num_nodes=num_nodes,
        cores_per_node=42,
        memory_per_node=512 * GB,
        cpu_speed=2.2,
        local_disk=StorageSpec(
            name="summit-nvme", aggregate_bw=2100 * MB,
            per_stream_bw=2100 * MB, latency=0.0001, capacity=1600 * GB),
        shared_fs=StorageSpec(
            name="summit-gpfs", aggregate_bw=250 * GB,
            per_stream_bw=5 * GB, latency=0.010, capacity=250_000 * GB),
        backbone_bw=400 * GB,
        link_bw=25 * GB,
        net_latency=1.5e-6,
        download_bw=200 * MB,
        has_dedicated_hadoop=False,
    )


def wrangler(num_nodes: int = 4) -> MachineSpec:
    """TACC Wrangler template (paper §IV): 48 cores / 128 GB per node.

    A data-intensive machine: large memory, fast node-local flash, a
    beefier Lustre allocation, ~1.6x faster cores ("better hardware",
    §IV-B), and a dedicated Hadoop environment for Mode II.
    """
    return MachineSpec(
        name="wrangler",
        num_nodes=num_nodes,
        cores_per_node=48,
        memory_per_node=128 * GB,
        cpu_speed=1.6,
        local_disk=StorageSpec(
            name="wrangler-flash", aggregate_bw=500 * MB,
            per_stream_bw=500 * MB, latency=0.0002, capacity=500 * GB),
        shared_fs=StorageSpec(
            name="wrangler-lustre", aggregate_bw=1800 * MB,
            per_stream_bw=400 * MB, latency=0.020, capacity=2000 * GB),
        backbone_bw=120 * GB,
        link_bw=10 * GB,
        net_latency=3e-6,
        download_bw=25 * MB,
        has_dedicated_hadoop=True,
    )
