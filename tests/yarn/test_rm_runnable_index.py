"""The RM's incremental runnable index vs the scan + sort it replaced.

``ResourceManager._schedule_on`` used to rebuild ``[a for a in
_active_apps.values() if a.pending]`` and re-sort it on every NodeManager
heartbeat.  It now walks an index maintained where membership changes.
``ScanResourceManager`` below is the old algorithm, kept as the test
oracle: seeded random programs must produce the same allocation
sequence and the same cluster metrics on both.
"""

import itertools
import random
from collections import deque

import pytest

from repro.analysis.sanitizer import SimSanitizer
from repro.cluster import Machine, stampede
from repro.sim import Environment
from repro.yarn import (
    AppSpec,
    CapacityPolicy,
    ContainerRequest,
    FairPolicy,
    FifoPolicy,
    YarnConfig,
    YarnResource,
)
from repro.yarn.node_manager import NodeManager
from repro.yarn.resource_manager import ResourceManager


# ------------------------------------------------------------ the oracle
def _reference_order(policy, active):
    """The seed's ``app_order`` per policy (keyed by ``seq`` where the
    seed used the zero-padded ``app_id`` — equal below 10,000 apps)."""
    if isinstance(policy, FairPolicy):
        return sorted(active, key=lambda a: (
            a.usage.memory_mb / policy._weight(a), a.seq))
    fifo = sorted(active, key=lambda a: a.seq)
    if not isinstance(policy, CapacityPolicy):
        return fifo
    by_queue = {}
    for app in fifo:
        by_queue.setdefault(app.queue, []).append(app)
    ordered = []
    while any(by_queue.values()):
        for queue in sorted(by_queue):
            if by_queue[queue]:
                ordered.append(by_queue[queue].pop(0))
    return ordered


def _reference_may_allocate(rm, app, resource):
    policy = rm.policy
    if not isinstance(policy, CapacityPolicy):
        return True
    queue_used = sum(a.usage.memory_mb for a in rm._active_apps.values()
                     if a.queue == app.queue)
    limit = rm.total_capacity().memory_mb * min(
        1.0, policy.queues[app.queue] * policy.max_capacity)
    return queue_used + resource.memory_mb <= limit + 1e-9


class ScanResourceManager(ResourceManager):
    """The pre-index scheduler: rescan and sort every active app on
    every heartbeat, and sum queue usage over them per ask."""

    def _schedule_on(self, nm):
        budget = self.config.max_assignments_per_heartbeat
        active = [a for a in self._active_apps.values() if a.pending]
        for app in _reference_order(self.policy, active):
            while app.pending and budget > 0:
                request = app.pending[0]
                if not request.resource.fits_in(nm.available):
                    break
                if not _reference_may_allocate(self, app, request.resource):
                    break
                if (request.preferred_nodes
                        and nm.name not in request.preferred_nodes):
                    if (not request.relax_locality
                            or request.missed_opportunities
                            < self.config.locality_delay_heartbeats):
                        request.missed_opportunities += 1
                        break
                app.pending.popleft()
                self._allocate(app, request, nm)
                budget -= 1
            if budget <= 0 or \
                    nm.available.memory_mb < self.config.min_allocation_mb:
                break
        # The oracle reads none of the incremental state; rebuild it by
        # scan so the inherited enqueue/finish hooks and an armed
        # sanitizer see a consistent RM.
        self._runnable = [a for a in active if a.pending]
        self._pending_requests = sum(len(a.pending) for a in self._runnable)
        if self.env.sanitizer is not None:
            self.env.sanitizer.check_resource_manager(self)


# ------------------------------------------------------- random programs
class _RecordingNM(NodeManager):
    """Logs every reservation: the allocation sequence under test."""

    def __init__(self, env, node, config, log):
        super().__init__(env, node, config)
        self._log = log

    def reserve(self, container):
        self._log.append((container.container_id, container.app_id,
                          self.name))
        super().reserve(container)


POLICIES = {
    "fifo": lambda: FifoPolicy(),
    "fair": lambda: FairPolicy(weights={"gold": 3.0}),
    "capacity": lambda: CapacityPolicy({"default": 0.6, "gold": 0.4},
                                       max_capacity=0.75),
}
NODES = 3
HORIZON = 400.0


def _program(seed):
    """A timed op list, drawn up front so both RMs run the same one."""
    rng = random.Random(seed)
    ops = []
    apps = rng.randint(12, 30)
    for index in range(apps):
        waves = []
        for _ in range(rng.randint(1, 2)):
            asks = []
            for _ in range(rng.randint(0, 3)):
                preferred = rng.choice([None, None, rng.randrange(NODES)])
                asks.append((rng.choice([512, 1024, 3000, 6144]),
                             preferred, rng.random() < 0.8))
            waves.append((asks, rng.choice([2.0, 10.0, 45.0])))
        ops.append((rng.uniform(0.0, 60.0), "submit", index,
                    rng.choice(["default", "default", "gold"]),
                    rng.choice([256, 512, 2048]), waves))
    for _ in range(rng.randint(0, 4)):
        ops.append((rng.uniform(5.0, 150.0), "kill", rng.randrange(apps)))
    for _ in range(rng.randint(0, 2)):
        ops.append((rng.uniform(20.0, 150.0), "lose", rng.randrange(NODES)))
    if rng.random() < 0.3:
        ops.append((rng.uniform(20.0, 150.0), "fail", rng.randrange(NODES)))
    return sorted(ops, key=lambda op: (op[0], op[1], op[2]))


def _am_program(waves, node_names):
    def am(ctx):
        for asks, task_seconds in waves:
            for memory_mb, preferred, relax in asks:
                ctx.add_container_request(ContainerRequest(
                    resource=YarnResource(memory_mb, 1),
                    preferred_nodes=(() if preferred is None
                                     else (node_names[preferred],)),
                    relax_locality=relax))
            granted = yield from ctx.wait_for_containers(
                len(asks), timeout=60.0)

            def task(env, container, seconds=task_seconds):
                yield env.timeout(seconds)

            done = [ctx.start_container(c, task) for c in granted
                    if not c.state.is_final]
            if done:
                yield ctx.env.all_of(done)
        ctx.finish("SUCCEEDED")
    return am


def _run(rm_cls, policy, ops):
    env = Environment()
    config = YarnConfig()
    machine = Machine(env, stampede(num_nodes=NODES))
    rm = rm_cls(env, config, policy)
    log = []
    nms = [_RecordingNM(env, node, config, log) for node in machine.nodes]
    for nm in nms:
        rm.register_node_manager(nm)
    env.run(env.process(rm.start()))
    env.run(env.all_of([env.process(nm.start()) for nm in nms]))
    node_names = [nm.name for nm in nms]
    submitted = {}

    def driver():
        start = env.now
        for op in ops:
            yield env.timeout(max(0.0, start + op[0] - env.now))
            if op[1] == "submit":
                _, _, index, queue, am_mb, waves = op
                submitted[index] = rm.submit_application(AppSpec(
                    name=f"app-{index}", queue=queue,
                    am_resource=YarnResource(am_mb, 1),
                    am_program=_am_program(waves, node_names)))
            elif op[1] == "kill":
                if op[2] in submitted:
                    rm.kill_application(submitted[op[2]].app_id)
            elif op[1] == "lose":
                rm._handle_node_loss(nms[op[2]])
            else:
                nms[op[2]].fail()

    env.process(driver())
    env.run(until=env.now + HORIZON)
    return log, rm.cluster_metrics(), rm


#: Seeds 0-23 are the standing sample; append the seed (or the minimised
#: op list, via ``_check``) of any program found to diverge.
SEEDS = list(range(24))


def _check(policy_name, ops):
    log, metrics, rm = _run(ResourceManager, POLICIES[policy_name](), ops)
    ref_log, ref_metrics, _ = _run(ScanResourceManager,
                                   POLICIES[policy_name](), ops)
    assert log == ref_log
    assert metrics == ref_metrics
    return log, metrics, rm


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("seed", SEEDS)
def test_index_matches_reference_scan(policy_name, seed):
    log, metrics, rm = _check(policy_name, _program(seed))
    assert len(log) >= 12            # at least every AM was placed
    assert metrics["containersAllocated"] == len(log)


def test_programs_exercise_reentry_kills_and_node_loss():
    """The sample is only an oracle if it reaches the interesting
    transitions: apps re-entering the index, kills and lost nodes."""
    reentered = killed = lost = 0
    for seed in SEEDS:
        ops = _program(seed)
        log, metrics, rm = _run(ResourceManager, POLICIES["capacity"](), ops)
        per_app = {}
        for _, app_id, _ in log:
            per_app[app_id] = per_app.get(app_id, 0) + 1
        reentered += sum(1 for n in per_app.values() if n > 1)
        killed += metrics["appsKilled"]
        lost += len(rm.lost_nodes)
    assert reentered > 50 and killed > 5 and lost > 5


# ------------------------------------------------- FIFO past 9,999 apps
def test_fifo_order_holds_across_the_10000th_application():
    """``application_10000`` sorts before ``application_9998`` as a
    string; scheduling order is the integer submission sequence."""
    env = Environment()
    config = YarnConfig(max_assignments_per_heartbeat=1)
    machine = Machine(env, stampede(num_nodes=1))
    rm = ResourceManager(env, config, FifoPolicy())
    nm = NodeManager(env, machine.nodes[0], config)
    rm.register_node_manager(nm)
    rm._app_counter = itertools.count(9998)
    env.run(env.process(rm.start()))
    env.run(env.process(nm.start()))

    def am(ctx):
        yield ctx.env.timeout(100.0)

    apps = [rm.submit_application(AppSpec(
        name=f"a{i}", am_resource=YarnResource(256, 1), am_program=am))
        for i in range(4)]
    env.run(until=env.now + 10.0)
    assert [a.app_id for a in apps] == [
        "application_9998", "application_9999",
        "application_10000", "application_10001"]
    assert [a.am_container.container_id for a in apps] == [
        f"container_{n:06d}" for n in (1, 2, 3, 4)]


# ------------------------------------------------------ complexity guard
class _CountingDeque(deque):
    """A ``pending`` deque that counts how often it is looked at."""

    examined = 0

    def __len__(self):
        type(self).examined += 1
        return super().__len__()


class _CountingFifo(FifoPolicy):
    def __init__(self):
        self.offered = self.asked = 0

    def app_order(self, apps):
        for app in super().app_order(apps):
            self.offered += 1
            yield app

    def may_allocate(self, app, resource):
        self.asked += 1
        return True


def _examined_per_opportunity(parked):
    """Park ``parked`` RUNNING apps with nothing pending next to 8
    runnable ones; count what one ``_schedule_on`` looks at."""
    env = Environment()
    config = YarnConfig(nm_vcore_ratio=64.0)
    machine = Machine(env, stampede(num_nodes=12))
    policy = _CountingFifo()
    rm = ResourceManager(env, config, policy)
    nms = [NodeManager(env, node, config) for node in machine.nodes]
    for nm in nms:
        rm.register_node_manager(nm)
    env.run(env.process(rm.start()))
    env.run(env.all_of([env.process(nm.start()) for nm in nms]))

    def idle_am(ctx):
        yield ctx.env.timeout(10_000.0)

    def submit(count, am_mb):
        return [rm.submit_application(AppSpec(
            name="a", am_resource=YarnResource(am_mb, 1),
            am_program=idle_am)) for _ in range(count)]

    parked_apps = submit(parked, 256)
    env.run(until=env.now + 60.0)
    assert all(a.state.name == "RUNNING" and not a.pending
               for a in parked_apps)
    runnable = submit(8, 10 ** 6)        # AM asks no node can ever fit
    env.run(until=env.now + 2.0)
    assert rm._runnable == runnable
    assert len(rm._active_apps) == parked + 8

    # An armed sanitizer (REPRO_SANITIZE=1) rescans every app by design.
    SimSanitizer.uninstall(env)
    for app in rm.apps.values():
        app.pending = _CountingDeque(app.pending)
    _CountingDeque.examined = policy.offered = policy.asked = 0
    rm._schedule_on(nms[-1])
    return _CountingDeque.examined, policy.offered, policy.asked


def test_scheduling_opportunity_cost_is_independent_of_parked_apps():
    few = _examined_per_opportunity(10)
    many = _examined_per_opportunity(1000)
    assert few == many
    examined, offered, _ = few
    assert offered == 8 and examined <= 3 * offered
