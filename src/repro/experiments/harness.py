"""Common experiment plumbing: testbed construction and pilot helpers."""

from __future__ import annotations

from dataclasses import replace

from repro.cluster.machine import (
    MachineSpec,
    frontera,
    stampede,
    summit,
    wrangler,
)
from repro.cluster.storage import StorageSpec
from repro.api import (
    ComputePilotDescription,
    PilotManager,
    PilotState,
    Session,
    UnitManager,
)
from repro.core.description import AgentConfig
from repro.experiments.calibration import CALIBRATED_RMS, LUSTRE_JOB_BW
from repro.hadoop_deploy import provision_dedicated_hadoop
from repro.saga import Registry, Site
from repro.sim import Environment

MACHINE_TEMPLATES = {"stampede": stampede, "wrangler": wrangler,
                     "frontera": frontera, "summit": summit}


def experiment_machine(name: str, num_nodes: int) -> MachineSpec:
    """Machine template with the job-visible Lustre share applied."""
    spec = MACHINE_TEMPLATES[name](num_nodes=num_nodes)
    agg, per_stream, latency = LUSTRE_JOB_BW[name]
    shared = StorageSpec(
        name=spec.shared_fs.name, aggregate_bw=agg,
        per_stream_bw=per_stream, latency=latency,
        capacity=spec.shared_fs.capacity)
    return replace(spec, shared_fs=shared)


class Testbed:
    """One experiment's simulated world: site + session + managers."""

    __test__ = False  # not a pytest test class despite the Test* name

    def __init__(self, machine: str, num_nodes: int, seed: int = 42,
                 rms_config=None, provision_hadoop: bool = False):
        self.env = Environment()
        self.registry = Registry()
        self.site = self.registry.register(Site(
            self.env, experiment_machine(machine, num_nodes),
            rms_kind="slurm", rms_config=rms_config or CALIBRATED_RMS))
        self.session = Session(self.env, self.registry, seed=seed)
        self.pmgr = PilotManager(self.session)
        self.umgr = UnitManager(self.session)
        if provision_hadoop:
            self.env.run(self.env.process(
                provision_dedicated_hadoop(self.site)))

    def start_pilot(self, nodes: int, agent_config: AgentConfig,
                    runtime: float = 24 * 60.0):
        """Submit a pilot and run the sim until it is ACTIVE.

        Returns (pilot, submit_time, active_time).
        """
        t_submit = self.env.now
        pilot = self.pmgr.submit_pilot(ComputePilotDescription(
            resource=f"slurm://{self.site.hostname}", nodes=nodes,
            runtime=runtime, agent_config=agent_config))
        self.umgr.add_pilots(pilot)
        self.env.run(pilot.wait(PilotState.ACTIVE))
        return pilot, t_submit, pilot.timestamp(PilotState.ACTIVE)

    def run(self, generator):
        """Drive a generator as a simulation process to completion."""
        return self.env.run(self.env.process(generator))
