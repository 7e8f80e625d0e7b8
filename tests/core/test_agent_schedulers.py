"""Direct unit tests for the agent schedulers."""

import pytest

from repro.analysis.sanitizer import InvariantViolation, SimSanitizer
from repro.cluster import Machine, stampede
from repro.core.agent.scheduler import (
    ContinuousScheduler,
    SlotAllocation,
    YarnAgentScheduler,
)
from repro.sim import Environment, SimulationError
from repro.yarn import YarnCluster, YarnConfig


def nodes(n=2):
    env = Environment()
    machine = Machine(env, stampede(num_nodes=n))
    return env, machine.nodes


# ----------------------------------------------------------- continuous
def test_pack_policy_fills_first_node():
    env, node_list = nodes(2)
    sched = ContinuousScheduler(env, node_list, policy="pack")
    grants = []

    def consume():
        for _ in range(4):
            alloc = yield sched.allocate(4)
            grants.append(alloc.primary_node.name)

    env.run(env.process(consume()))
    assert grants == [node_list[0].name] * 4  # 16 cores: all on node 0


def test_spread_policy_balances_nodes():
    env, node_list = nodes(2)
    sched = ContinuousScheduler(env, node_list, policy="spread")
    grants = []

    def consume():
        for _ in range(4):
            alloc = yield sched.allocate(4)
            grants.append(alloc.primary_node.name)

    env.run(env.process(consume()))
    assert grants.count(node_list[0].name) == 2
    assert grants.count(node_list[1].name) == 2


def test_multi_node_unit_spans():
    env, node_list = nodes(2)
    sched = ContinuousScheduler(env, node_list, policy="pack")
    holder = {}

    def consume():
        alloc = yield sched.allocate(24)  # > 16 cores: spans 2 nodes
        holder["alloc"] = alloc

    env.run(env.process(consume()))
    alloc = holder["alloc"]
    assert alloc.total_cores == 24
    assert len(alloc.assignments) == 2


def test_fifo_no_overtaking_and_release():
    env, node_list = nodes(1)
    sched = ContinuousScheduler(env, node_list)
    order = []

    def user(name, cores, hold):
        alloc = yield sched.allocate(cores)
        order.append((env.now, name))
        yield env.timeout(hold)
        sched.release(alloc)

    env.process(user("big", 16, 10.0))
    env.process(user("blocked-big", 16, 1.0))
    env.process(user("small", 1, 1.0))
    env.run()
    names = [n for _, n in order]
    # strict FIFO: small does NOT overtake blocked-big
    assert names == ["big", "blocked-big", "small"]


def test_oversized_request_rejected():
    env, node_list = nodes(1)
    sched = ContinuousScheduler(env, node_list)
    with pytest.raises(SimulationError, match="cores"):
        sched.allocate(17)
    with pytest.raises(SimulationError):
        sched.allocate(0)


def test_invalid_policy_rejected():
    env, node_list = nodes(1)
    with pytest.raises(SimulationError, match="policy"):
        ContinuousScheduler(env, node_list, policy="random")


def test_free_cores_accounting():
    env, node_list = nodes(1)
    sched = ContinuousScheduler(env, node_list)

    def consume():
        alloc = yield sched.allocate(10)
        assert sched.free_cores == 6
        sched.release(alloc)
        assert sched.free_cores == 16

    env.run(env.process(consume()))


def test_total_cores_cached_at_construction():
    env, node_list = nodes(2)
    sched = ContinuousScheduler(env, node_list)
    expected = sum(n.num_cores for n in node_list)
    assert sched.total_cores == expected

    def consume():
        alloc = yield sched.allocate(5)
        assert sched.total_cores == expected  # invariant under churn
        sched.release(alloc)
        assert sched.total_cores == expected

    env.run(env.process(consume()))


@pytest.mark.parametrize("policy", ["pack", "spread"])
def test_sanitizer_checks_counter_consistency(policy):
    """The installed sanitizer cross-checks the incremental free-core
    counter against a full per-node re-summation on every grant."""
    env, node_list = nodes(2)
    sanitizer = SimSanitizer.install(env)
    sched = ContinuousScheduler(env, node_list, policy=policy)

    def churn():
        held = []
        for cores in (4, 7, 16, 1):
            held.append((yield sched.allocate(cores)))
        for alloc in held[:2]:
            sched.release(alloc)
        held.append((yield sched.allocate(9)))
        for alloc in held[2:]:
            sched.release(alloc)

    env.run(env.process(churn()))
    assert sched.free_cores == sched.total_cores
    assert sanitizer.checks_run["scheduler"] > 0
    assert sanitizer.violations == 0


def test_sanitizer_catches_corrupted_counter():
    env, node_list = nodes(1)
    SimSanitizer.install(env)
    sched = ContinuousScheduler(env, node_list)
    sched._free_cores -= 1  # simulate drift

    def consume():
        yield sched.allocate(1)

    with pytest.raises(InvariantViolation):
        env.run(env.process(consume()))


# ------------------------------------------------------------- yarn
def make_yarn_sched(num_nodes=1):
    env = Environment()
    machine = Machine(env, stampede(num_nodes=num_nodes))
    yarn = YarnCluster(env, machine, machine.nodes, config=YarnConfig())
    env.run(env.process(yarn.start()))
    return env, YarnAgentScheduler(env, yarn.resource_manager,
                                   am_memory_mb=512)


def test_yarn_scheduler_reserves_and_releases():
    env, sched = make_yarn_sched()
    holder = {}

    def consume():
        alloc = yield sched.allocate(cores=2, memory_mb=4096)
        holder["alloc"] = alloc

    env.run(env.process(consume()))
    alloc = holder["alloc"]
    assert alloc.memory_mb == 4096 + 512
    assert alloc.total_cores == 2
    assert sched._reserved_mb == 4608
    sched.release(alloc)
    assert sched._reserved_mb == 0
    assert sched._reserved_cores == 0


def test_yarn_scheduler_blocks_at_cluster_capacity():
    env, sched = make_yarn_sched()
    total_mb = sched.cluster_state()["totalMB"]
    big = total_mb - 512
    granted = []

    def first():
        alloc = yield sched.allocate(cores=1, memory_mb=big)
        granted.append("first")
        yield env.timeout(10.0)
        sched.release(alloc)

    def second():
        yield env.timeout(0.1)
        alloc = yield sched.allocate(cores=1, memory_mb=big)
        granted.append(("second", env.now))

    env.process(first())
    env.process(second())
    env.run(until=60.0)
    assert granted[0] == "first"
    assert granted[1][1] >= 10.0  # waited for the release


def test_yarn_scheduler_rejects_impossible_slot():
    env, sched = make_yarn_sched()
    total_mb = sched.cluster_state()["totalMB"]
    with pytest.raises(SimulationError, match="exceeds"):
        sched.allocate(cores=1, memory_mb=total_mb * 2)


def test_slot_allocation_explicit_cores():
    alloc = SlotAllocation([], memory_mb=1024, cores=3)
    assert alloc.total_cores == 3
