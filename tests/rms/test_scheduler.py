"""Tests for the batch-scheduler engine and its dialects."""

import math

import pytest

from repro.cluster import Machine, stampede
from repro.rms import (
    JobDescription,
    JobState,
    RmsConfig,
    SgeScheduler,
    SlurmScheduler,
    TorqueScheduler,
    make_scheduler,
)
from repro.sim import Environment, Interrupt

FAST = RmsConfig(submit_latency=0.5, prolog_seconds=2.0,
                 epilog_seconds=0.5)


def make_env(num_nodes=4, config=FAST, cls=SlurmScheduler):
    env = Environment()
    machine = Machine(env, stampede(num_nodes=num_nodes))
    rms = cls(env, machine, config)
    return env, machine, rms


def sleep_payload(duration):
    def payload(env, job):
        yield env.timeout(duration)
    return payload


def test_job_runs_and_completes():
    env, machine, rms = make_env()
    job = rms.submit(JobDescription(num_nodes=2, walltime=100,
                                    payload=sleep_payload(10)))
    env.run(job.finished)
    assert job.state is JobState.DONE
    assert job.exit_code == 0
    assert job.start_time is not None
    assert job.end_time - job.start_time == pytest.approx(10.0 + FAST.epilog_seconds)


def test_allocation_size_and_exclusivity():
    env, machine, rms = make_env(num_nodes=4)
    seen = {}

    def payload(env_, job_):
        seen["nodes"] = list(job_.allocation.node_names)
        yield env_.timeout(1)

    job = rms.submit(JobDescription(num_nodes=3, payload=payload))
    env.run(job.finished)
    assert len(seen["nodes"]) == 3
    assert len(set(seen["nodes"])) == 3


def test_jobs_queue_when_machine_full():
    env, machine, rms = make_env(num_nodes=2)
    j1 = rms.submit(JobDescription(num_nodes=2, payload=sleep_payload(50)))
    j2 = rms.submit(JobDescription(num_nodes=2, payload=sleep_payload(10)))
    env.run(j2.finished)
    assert j2.start_time >= j1.end_time  # j2 had to wait for j1's nodes


def test_backfill_lets_small_job_jump():
    env, machine, rms = make_env(num_nodes=3)
    big_hold = rms.submit(JobDescription(num_nodes=2, payload=sleep_payload(60)))
    blocked = rms.submit(JobDescription(num_nodes=2, payload=sleep_payload(5)))
    small = rms.submit(JobDescription(num_nodes=1, payload=sleep_payload(5)))
    env.run(small.finished)
    # small fits in the 1 free node and must not wait for `blocked`:
    # it finishes while the 60s holder is still running and before
    # `blocked` has even started.
    assert small.state is JobState.DONE
    assert big_hold.state is JobState.RUNNING
    assert blocked.state is JobState.PENDING


def test_same_instant_releases_coalesce_into_one_pass():
    """Both holders release before the kicked pass runs, so the 2-node
    head starts; a pass per release would backfill the small job into
    the first freed node instead."""
    env, machine, rms = make_env(num_nodes=2)
    for _ in range(2):
        rms.submit(JobDescription(num_nodes=1, payload=sleep_payload(10)))
    head = rms.submit(JobDescription(num_nodes=2, payload=sleep_payload(5)))
    small = rms.submit(JobDescription(num_nodes=1, payload=sleep_payload(5)))
    env.run(head.started)
    assert small.state is JobState.PENDING


def test_walltime_timeout():
    env, machine, rms = make_env()
    job = rms.submit(JobDescription(num_nodes=1, walltime=5.0,
                                    payload=sleep_payload(1000)))
    env.run(job.finished)
    assert job.state is JobState.TIMEOUT
    assert "walltime" in job.fail_reason


def test_payload_exception_fails_job():
    env, machine, rms = make_env()

    def bad_payload(env_, job_):
        yield env_.timeout(1)
        raise RuntimeError("bootstrap exploded")

    job = rms.submit(JobDescription(num_nodes=1, payload=bad_payload))
    env.run(job.finished)
    assert job.state is JobState.FAILED
    assert "bootstrap exploded" in job.fail_reason


def test_cancel_pending_job():
    env, machine, rms = make_env(num_nodes=1)
    holder = rms.submit(JobDescription(num_nodes=1, payload=sleep_payload(100)))
    victim = rms.submit(JobDescription(num_nodes=1, payload=sleep_payload(1)))

    def canceler():
        yield env.timeout(10)
        rms.cancel(victim.job_id)

    env.process(canceler())
    env.run(victim.finished)
    assert victim.state is JobState.CANCELED
    assert victim.start_time is None


def test_cancel_running_job_releases_nodes():
    env, machine, rms = make_env(num_nodes=1)
    victim = rms.submit(JobDescription(num_nodes=1, payload=sleep_payload(1000)))
    follower = rms.submit(JobDescription(num_nodes=1, payload=sleep_payload(1)))

    def canceler():
        yield victim.started
        yield env.timeout(5)
        rms.cancel(victim.job_id)

    env.process(canceler())
    env.run(follower.finished)
    assert victim.state is JobState.CANCELED
    assert follower.state is JobState.DONE


def test_payload_may_catch_cancel_interrupt():
    env, machine, rms = make_env()
    cleaned = []

    def graceful(env_, job_):
        try:
            yield env_.timeout(1000)
        except Interrupt:
            cleaned.append(True)

    job = rms.submit(JobDescription(num_nodes=1, payload=graceful))

    def canceler():
        yield job.started
        rms.cancel(job.job_id)

    env.process(canceler())
    env.run(job.finished)
    assert cleaned == [True]
    assert job.state is JobState.DONE  # payload exited normally


def test_nodes_released_after_completion():
    env, machine, rms = make_env(num_nodes=2)
    job = rms.submit(JobDescription(num_nodes=2, payload=sleep_payload(5)))
    env.run(job.finished)
    assert rms.free_node_count == 2


def test_idle_scheduler_dispatches_nothing():
    """With an empty queue the scheduler waits for a kick, not a clock."""
    env, machine, rms = make_env()
    env.run(until=0)                      # the scheduler process starts
    steps = env.steps
    env.run(until=10_000)
    assert env.steps == steps
    assert env.peek() == math.inf


def test_payload_processes_dropped_when_jobs_end():
    env, machine, rms = make_env(num_nodes=2)
    done = rms.submit(JobDescription(num_nodes=1, payload=sleep_payload(5)))
    victim = rms.submit(JobDescription(num_nodes=1,
                                       payload=sleep_payload(1000)))
    env.run(victim.started)
    assert set(rms._payload_procs) == {done.job_id, victim.job_id}
    rms.cancel(victim.job_id)
    env.run(env.all_of([done.finished, victim.finished]))
    assert done.state is JobState.DONE
    assert victim.state is JobState.CANCELED
    assert rms._payload_procs == {}


def test_oversized_job_rejected():
    env, machine, rms = make_env(num_nodes=2)
    with pytest.raises(ValueError, match="nodes"):
        rms.submit(JobDescription(num_nodes=5))


def test_invalid_description_rejected():
    env, machine, rms = make_env()
    with pytest.raises(ValueError):
        rms.submit(JobDescription(num_nodes=0))
    with pytest.raises(ValueError):
        rms.submit(JobDescription(walltime=-1))


def test_queue_wait_measured():
    env, machine, rms = make_env(num_nodes=1)
    j1 = rms.submit(JobDescription(num_nodes=1, payload=sleep_payload(20)))
    j2 = rms.submit(JobDescription(num_nodes=1, payload=sleep_payload(1)))
    env.run(j2.finished)
    assert j2.queue_wait > 15


def test_job_history_records_transitions():
    env, machine, rms = make_env()
    job = rms.submit(JobDescription(num_nodes=1, payload=sleep_payload(1)))
    env.run(job.finished)
    states = [s for _, s in job.history]
    assert states == [JobState.NEW, JobState.PENDING,
                      JobState.RUNNING, JobState.DONE]


def test_illegal_transition_rejected():
    env, machine, rms = make_env()
    job = rms.submit(JobDescription(num_nodes=1, payload=sleep_payload(1)))
    env.run(job.finished)
    with pytest.raises(ValueError, match="illegal"):
        job.advance(JobState.RUNNING)


# ----------------------------------------------------------- RMS dialects
def test_slurm_environment_export():
    env, machine, rms = make_env(cls=SlurmScheduler)
    captured = {}

    def payload(env_, job_):
        captured.update(job_.env_vars)
        yield env_.timeout(1)

    job = rms.submit(JobDescription(num_nodes=2, payload=payload))
    env.run(job.finished)
    assert captured["SLURM_NNODES"] == "2"
    assert captured["SLURM_CPUS_ON_NODE"] == "16"
    assert "stampede-n" in captured["SLURM_NODELIST"]


def test_torque_nodefile_one_line_per_core():
    env = Environment()
    machine = Machine(env, stampede(num_nodes=2))
    rms = TorqueScheduler(env, machine, FAST)
    captured = {}

    def payload(env_, job_):
        captured.update(job_.env_vars)
        yield env_.timeout(1)

    job = rms.submit(JobDescription(num_nodes=2, payload=payload))
    env.run(job.finished)
    lines = captured["PBS_NODEFILE"].split("\n")
    assert len(lines) == 2 * 16
    assert captured["PBS_NUM_PPN"] == "16"


def test_sge_hostfile_format():
    env = Environment()
    machine = Machine(env, stampede(num_nodes=2))
    rms = SgeScheduler(env, machine, FAST)
    captured = {}

    def payload(env_, job_):
        captured.update(job_.env_vars)
        yield env_.timeout(1)

    job = rms.submit(JobDescription(num_nodes=2, queue="fast", payload=payload))
    env.run(job.finished)
    lines = captured["PE_HOSTFILE"].split("\n")
    assert len(lines) == 2
    assert lines[0].split()[1] == "16"
    assert captured["NSLOTS"] == "32"


def test_make_scheduler_factory():
    env = Environment()
    machine = Machine(env, stampede(num_nodes=1))
    assert isinstance(make_scheduler("slurm", env, machine), SlurmScheduler)
    assert isinstance(make_scheduler("pbs", env, machine), TorqueScheduler)
    assert isinstance(make_scheduler("SGE", env, machine), SgeScheduler)
    with pytest.raises(ValueError):
        make_scheduler("lsf", env, machine)


def test_custom_environment_passthrough():
    env, machine, rms = make_env()
    captured = {}

    def payload(env_, job_):
        captured.update(job_.env_vars)
        yield env_.timeout(1)

    job = rms.submit(JobDescription(
        num_nodes=1, payload=payload,
        environment={"RADICAL_PILOT_DBURL": "mongodb://x"}))
    env.run(job.finished)
    assert captured["RADICAL_PILOT_DBURL"] == "mongodb://x"
