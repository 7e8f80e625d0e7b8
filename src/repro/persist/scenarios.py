"""Built-in checkpoint scenarios.

A scenario deterministically constructs a session and advances it to an
interesting mid-flight point, then *returns without draining the
workload* — that is the whole point: the caller advances simulated time
in slices, checkpointing at the quiescent barriers in between, and a
restore replays the same recipe in a fresh process.

The built-ins cover the full stack the paper exercises: pilot + agent +
scheduler state, an in-flight bag of units under a restart policy,
armed faults, and a raptor master/worker overlay with a task stream.
``bag`` is the chaos grid's bag cell's own world:
:func:`repro.experiments.chaos.run_chaos_bag` drains and measures it.
"""

from __future__ import annotations

from repro.persist.checkpoint import scenario


@scenario("bag")
def bag(seed: int, flavor: str = "RP", fault_rate: float = 0.25,
        ntasks: int = 8, nodes: int = 2):
    """An in-flight bag of tasks with a poisoned fraction.

    The chaos-grid bag cell's world, stopped right after submission:
    the pilot is ACTIVE, ``ntasks`` units are queued/executing,
    ``fault_rate`` of them carry one transient executor error each, and
    the restart policy that will absorb those errors is armed.  Nothing has
    drained — the returned session is mid-workload by construction.
    """
    from repro.api import (ComputeUnitDescription, RestartPolicy,
                           UnitManager)
    from repro.experiments.calibration import agent_config
    from repro.experiments.harness import Testbed

    testbed = Testbed("stampede", num_nodes=nodes, seed=seed)
    policy = RestartPolicy(max_restarts=3, backoff=0.5,
                           backoff_factor=2.0, backoff_cap=8.0)
    umgr = UnitManager(testbed.session, restart_policy=policy)
    testbed.umgr = umgr
    lrm = "yarn" if flavor == "RP-YARN" else "fork"
    testbed.start_pilot(nodes=nodes, agent_config=agent_config(lrm))
    units = umgr.submit_units([
        ComputeUnitDescription(cores=1, cpu_seconds=30.0, memory_mb=1024,
                               name=f"bag-{i}")
        for i in range(ntasks)])
    npoison = round(fault_rate * ntasks)
    for i in range(npoison):
        # evenly spread over the bag, deterministically
        testbed.session.faults.unit_error(
            units[(i * ntasks) // npoison].uid, times=1)
    session = testbed.session
    session.handles["units"] = units
    session.handles["umgr"] = umgr
    return session


@scenario("raptor-stream")
def raptor_stream(seed: int, workers: int = 2, ntasks: int = 12,
                  nodes: int = 2):
    """A raptor overlay mid-stream.

    The pilot is ACTIVE, the master and ``workers`` worker CUs are up,
    and ``ntasks`` function tasks are submitted but not yet drained.
    """
    from repro.experiments.calibration import agent_config
    from repro.experiments.harness import Testbed
    from repro.raptor.task import TaskDescription

    testbed = Testbed("stampede", num_nodes=nodes, seed=seed)
    pilot, _, _ = testbed.start_pilot(nodes=nodes,
                                      agent_config=agent_config("fork"))
    overlay = testbed.session.raptor(pilot, workers=workers)
    testbed.env.run(overlay.ready())
    overlay.submit_tasks([
        TaskDescription(cpu_seconds=5.0, name=f"stream-{i}")
        for i in range(ntasks)], futures=False)
    session = testbed.session
    session.handles["overlay"] = overlay
    return session
