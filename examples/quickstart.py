#!/usr/bin/env python
"""Quickstart: a pilot on (simulated) Stampede running Compute-Units.

The canonical RADICAL-Pilot hello-world, against the simulated
testbed: build a site, submit a pilot through SAGA/SLURM, wait for the
agent to come up, run a bag of Compute-Units (each with modeled cost
*and* a real Python payload), and print what came back.

Run:  python examples/quickstart.py
"""

from repro.cluster import stampede
from repro.api import (
    AgentConfig,
    ComputePilotDescription,
    ComputeUnitDescription,
    PilotState,
    Session,
)
from repro.saga import Registry, Site
from repro.sim import Environment


def main():
    # --- the simulated world: one Stampede-like machine behind SLURM ---
    env = Environment()
    registry = Registry()
    registry.register(Site(env, stampede(num_nodes=2), rms_kind="slurm"))

    # --- the RADICAL-Pilot session: managers + shared DB ---
    session = Session(env, registry)
    pmgr = session.pilot_manager()
    umgr = session.unit_manager()

    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://stampede",
        nodes=2,
        runtime=60,                      # minutes, as in RP
        agent_config=AgentConfig(lrm="fork")))
    umgr.add_pilots(pilot)

    def application():
        yield pilot.wait(PilotState.ACTIVE)
        print(f"[{env.now:8.1f}s] pilot ACTIVE on "
              f"{pilot.agent_info['cores']} cores "
              f"({', '.join(pilot.agent_info['nodes'])})")

        units = umgr.submit_units([
            ComputeUnitDescription(
                executable="/bin/echo",
                arguments=(f"hello-{i}",),
                cores=1,
                cpu_seconds=30.0,            # modeled compute
                input_bytes=50e6,            # modeled I/O (Lustre)
                function=lambda i=i: i * i)  # real payload
            for i in range(8)
        ])
        print(f"[{env.now:8.1f}s] submitted {len(units)} units")
        yield umgr.wait_units(units)
        for unit in units:
            print(f"[{env.now:8.1f}s] {unit.uid}: {unit.state.value:6s} "
                  f"result={unit.result}  startup={unit.startup_time:.1f}s")

        pmgr.cancel_pilot(pilot.uid)
        yield pilot.wait()
        print(f"[{env.now:8.1f}s] pilot final state: {pilot.state.value}")

    env.run(env.process(application()))


if __name__ == "__main__":
    main()
