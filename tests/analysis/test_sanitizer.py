"""SimSanitizer: install/uninstall plumbing, every checker's violation
path, telemetry reporting, and the results-are-unchanged guarantee."""

import pytest

import repro.telemetry as telemetry_mod
from repro.analysis.sanitizer import (
    InvariantViolation,
    SimSanitizer,
    sanitize_enabled,
)
from repro.cluster import Machine, stampede
from repro.cluster.storage import SharedBandwidthPipe
from repro.core.agent.scheduler import ContinuousScheduler
from repro.core.session import Session
from repro.saga import Registry
from repro.sim import Environment


# ------------------------------------------------------- installation
def test_install_is_idempotent_and_uninstall_detaches():
    env = Environment()
    first = SimSanitizer.install(env)
    assert SimSanitizer.install(env) is first
    assert env.sanitizer is first
    SimSanitizer.uninstall(env)
    assert env.sanitizer is None

    # Wrappers stay but pass through; scheduling still works.
    def worker():
        yield env.timeout(1.0)

    env.process(worker())
    env.run()
    assert env.now == 1.0


def test_sanitize_enabled_reads_environment():
    assert sanitize_enabled({"REPRO_SANITIZE": "1"})
    assert sanitize_enabled({"REPRO_SANITIZE": "true"})
    assert not sanitize_enabled({"REPRO_SANITIZE": "0"})
    assert not sanitize_enabled({})


def test_environment_auto_installs_from_env_var(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    env = Environment()
    assert env.sanitizer is not None


def test_session_sanitize_kwarg_tristate(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    env = Environment()
    session = Session(env, Registry(), sanitize=True)
    assert session.sanitizer is env.sanitizer is not None
    env2 = Environment()
    assert Session(env2, Registry()).sanitizer is None
    monkeypatch.setenv("REPRO_SANITIZE", "yes")
    env3 = Environment()
    assert Session(env3, Registry()).sanitizer is not None
    env4 = Environment()
    SimSanitizer.install(env4)
    assert Session(env4, Registry(), sanitize=False).sanitizer is None


# ------------------------------------------------------------ checkers
def test_clock_checker_rejects_nan_and_inf_delays():
    # (Negative delays are rejected by the Timeout constructor itself,
    # before the clock checker ever sees them.)
    env = Environment()
    sanitizer = SimSanitizer.install(env)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvariantViolation, match="clock"):
            env.timeout(bad)
    env.timeout(0.0)
    env.timeout(2.5)
    assert sanitizer.violations == 2
    assert sanitizer.checks_run["clock"] >= 2


def test_scheduler_checker_catches_counter_drift():
    env = Environment()
    SimSanitizer.install(env)
    machine = Machine(env, stampede(num_nodes=1))
    sched = ContinuousScheduler(env, machine.nodes)
    sched._waiting += 1  # corrupt the queue-depth counter

    def consume():
        yield sched.allocate(1)

    with pytest.raises(InvariantViolation, match="queue-depth"):
        env.run(env.process(consume()))


def test_pipe_checker_catches_ledger_divergence():
    env = Environment()
    SimSanitizer.install(env)
    pipe = SharedBandwidthPipe(env, aggregate_bw=100.0)

    def workers():
        first = pipe.transfer(1000.0)
        pipe.transfer(4000.0)
        pipe._shadow[next(iter(pipe._shadow))] += 123.0  # corrupt
        yield first

    with pytest.raises(InvariantViolation, match="pipe"):
        env.run(env.process(workers()))


def test_pipe_checker_armed_mid_flight_starts_from_an_exact_ledger():
    """A checker installed while transfers are in flight rebuilds the
    shadow ledger from the finish credits, then checks as if it had been
    there from the start (the transfers drain without a violation)."""
    env = Environment()
    pipe = SharedBandwidthPipe(env, aggregate_bw=100.0)
    first = pipe.transfer(1000.0)
    env.run(until=2.0)
    SimSanitizer.install(env)
    second = pipe.transfer(400.0)
    env.run(env.all_of([first, second]))
    assert env.now == pytest.approx(14.0)
    assert pipe._shadow_synced


def test_yarn_rm_checker_catches_tally_drift():
    from repro.yarn import YarnCluster, YarnConfig

    env = Environment()
    sanitizer = SimSanitizer.install(env)
    machine = Machine(env, stampede(num_nodes=1))
    cluster = YarnCluster(env, machine, machine.nodes, config=YarnConfig())
    env.run(env.process(cluster.start()))
    rm = cluster.resource_manager
    sanitizer.check_resource_manager(rm)  # clean state passes
    rm._apps_pending += 1
    with pytest.raises(InvariantViolation, match="app-state tallies"):
        sanitizer.check_resource_manager(rm)


@pytest.mark.parametrize("corrupt, message", [
    (lambda rm: rm._runnable.reverse(), "runnable index"),
    (lambda rm: rm._runnable.pop(), "runnable index"),
    (lambda rm: setattr(rm, "_pending_requests", 3),
     "pending-request count 3 != scan 2"),
], ids=["runnable-order", "runnable-membership", "pending-count"])
def test_yarn_rm_checker_catches_scheduling_index_drift(corrupt, message):
    from repro.yarn import AppSpec, YarnCluster, YarnConfig, YarnResource

    env = Environment()
    sanitizer = SimSanitizer.install(env)
    machine = Machine(env, stampede(num_nodes=1))
    cluster = YarnCluster(env, machine, machine.nodes, config=YarnConfig())
    env.run(env.process(cluster.start()))
    rm = cluster.resource_manager
    # Two AM asks larger than the node: they stay queued, so both apps
    # sit in the runnable index while heartbeats keep checking it.
    for name in ("a", "b"):
        rm.submit_application(AppSpec(
            name=name, am_resource=YarnResource(10 ** 6, 1),
            am_program=lambda ctx: iter(())))
    env.run(until=env.now + 5.0)
    assert [a.spec.name for a in rm._runnable] == ["a", "b"]
    sanitizer.check_resource_manager(rm)  # clean state passes
    corrupt(rm)
    with pytest.raises(InvariantViolation, match=message):
        sanitizer.check_resource_manager(rm)


def test_namenode_checker_catches_phantom_replica():
    from repro.hdfs import HdfsCluster

    env = Environment()
    sanitizer = SimSanitizer.install(env)
    machine = Machine(env, stampede(num_nodes=2))
    hdfs = HdfsCluster(env, machine, machine.nodes)
    env.run(env.process(hdfs.start()))
    client = hdfs.client(hdfs.master_node.name)

    def driver():
        yield env.process(client.put("/data/a", 1024.0))

    env.run(env.process(driver()))
    nn = hdfs.namenode
    block_id = next(iter(nn.block_map))
    nn.block_map[block_id] = nn.block_map[block_id] + ["node-does-not-exist"]
    with pytest.raises(InvariantViolation, match="unregistered"):
        sanitizer.check_namenode(nn)


def test_drain_checker_flags_leaked_process():
    env = Environment()
    sanitizer = SimSanitizer.install(env)

    def leaker():
        from repro.sim.engine import Event
        yield Event(env)  # blocks forever: nobody fires this event

    env.process(leaker(), name="leaker")
    env.run()
    with pytest.raises(InvariantViolation, match="leaker"):
        sanitizer.assert_drained()


def test_drain_checker_passes_after_clean_run():
    env = Environment()
    sanitizer = SimSanitizer.install(env)

    def worker():
        yield env.timeout(1.0)

    env.process(worker())
    env.run()
    sanitizer.assert_drained()
    assert sanitizer.checks_run["drain"] == 1


# ----------------------------------------------------------- reporting
def test_violations_are_reported_through_telemetry():
    env = Environment()
    telemetry = telemetry_mod.install(env)
    sanitizer = SimSanitizer.install(env)
    events = []
    telemetry.bus.subscribe(events.append, categories=["sanitizer"])
    with pytest.raises(InvariantViolation):
        env.timeout(float("nan"))
    assert sanitizer.violations == 1
    assert len(events) == 1
    assert events[0].name == "violation"
    assert "delay" in events[0].payload["detail"]
    counter = telemetry.counter("sanitizer.violations", checker="clock")
    assert counter.total == 1


def test_report_summarises_checks_and_violations():
    env = Environment()
    sanitizer = SimSanitizer.install(env)
    env.timeout(1.0)
    report = sanitizer.report()
    assert report["checks_run"]["clock"] == 1
    assert report["violations"] == 0


# ------------------------------------------- results are not perturbed
def test_sanitizer_does_not_change_yarn_results():
    """The same workload, sanitized and not, finishes at the same
    simulated times — installing the sanitizer never changes results."""
    from tests.yarn.test_yarn import make_yarn, simple_am, submit_and_wait
    from repro.yarn import AppSpec, YarnResource

    def run(sanitize):
        env, machine, cluster = make_yarn(num_nodes=2)
        if sanitize:
            SimSanitizer.install(env)
        spec = AppSpec(name="probe", am_resource=YarnResource(512, 1),
                       am_program=simple_am(task_count=4))
        submit_and_wait(env, cluster, spec)
        return env.now

    assert run(True) == run(False)


def test_sanitizer_does_not_change_sweep_digest(monkeypatch):
    """A whole experiment grid hashes to the same digest with the
    sanitizer armed via REPRO_SANITIZE — the read-only contract, end
    to end."""
    from repro.experiments.sweeps import run_sweep

    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    plain = run_sweep("figure5", jobs=1).digest()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = run_sweep("figure5", jobs=1).digest()
    assert plain == sanitized
