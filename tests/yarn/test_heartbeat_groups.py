"""One heartbeat tick per phase vs one heartbeat process per NodeManager.

The ResourceManager drives every NodeManager that started heartbeating
at one instant from a single tick process, in registration order.
``PerNodeHeartbeatResourceManager`` below is the one-process-per-NM
loop that replaced, kept as the test oracle: on generated programs
(two registration phases, NMs that die, revive before and after the
liveness expiry, or die, revive and die again between two beats) both
must allocate the same containers on the same nodes at the same
instants and declare the same nodes lost at the same instants.
"""

import random

import pytest

from repro.cluster import Machine, stampede
from repro.sim import Environment
from repro.yarn import AppSpec, YarnConfig, YarnResource
from repro.yarn.node_manager import NodeManager
from repro.yarn.resource_manager import ResourceManager
from tests.yarn.test_rm_runnable_index import _am_program


# ------------------------------------------------------------ the oracle
class PerNodeHeartbeatResourceManager(ResourceManager):
    """One ``hb-<node>`` process per NodeManager, each counting its own
    missed beats.  Reference model only."""

    def _start_heartbeat(self, nm):
        self.env.process(self._per_node_loop(nm), name=f"hb-{nm.name}")

    def _per_node_loop(self, nm):
        missed = 0
        while self.running:
            yield self.env.timeout(self.config.nm_heartbeat)
            if nm.alive:
                if missed:
                    self.lost_nodes.discard(nm.name)
                missed = 0
                self._schedule_on(nm)
            else:
                missed += 1
                if (missed >= self.config.nm_liveness_heartbeats
                        and nm.name not in self.lost_nodes):
                    self._handle_node_loss(nm)


# ------------------------------------------------------------ recording
class _RecordingNM(NodeManager):
    """Logs every reservation with its instant."""

    def __init__(self, env, node, config, log):
        super().__init__(env, node, config)
        self._log = log

    def reserve(self, container):
        self._log.append((self.env.now, container.container_id,
                          container.app_id, self.name))
        super().reserve(container)


class _RecordingSet(set):
    """``lost_nodes`` that logs when a node enters or leaves it."""

    def __init__(self, env, log):
        super().__init__()
        self._env, self._log = env, log

    def add(self, name):
        self._log.append((self._env.now, "lost", name))
        super().add(name)

    def discard(self, name):
        if name in self:
            self._log.append((self._env.now, "back", name))
        super().discard(name)


# ------------------------------------------------------- random programs
NODES = 6
EARLY = 3                 # NMs registered before the RM starts
HORIZON = 300.0
CONFIG = YarnConfig()
BEAT = CONFIG.nm_heartbeat
EXPIRY = CONFIG.nm_liveness_heartbeats * BEAT


def _program(seed):
    """A timed op list, drawn up front so both RMs run the same one.

    Times are offsets from the RM's start; the late NMs register
    ``late`` seconds after it, off the early NMs' beat phase.  Liveness
    ops are placed relative to the victim's own beat phase so each
    lands where it is meant to: a ``blip`` revives before the expiry,
    an ``outage`` after it, a ``flap`` dies, revives and dies again
    between two beats.
    """
    rng = random.Random(seed)
    late = rng.choice([0.25, 0.5, 0.7]) + rng.randrange(0, 20)
    ops = [(late, "register")]
    for index in range(rng.randint(8, 16)):
        waves = []
        for _ in range(rng.randint(1, 2)):
            asks = [(rng.choice([512, 1024, 3000, 6144]),
                     rng.choice([None, None, rng.randrange(NODES)]),
                     rng.random() < 0.8)
                    for _ in range(rng.randint(0, 3))]
            waves.append((asks, rng.choice([2.0, 10.0, 45.0])))
        ops.append((rng.uniform(0.0, 60.0), "submit", index,
                    rng.choice([256, 512, 2048]), waves))
    kinds = ["blip", "outage", "flap", "die"]
    for victim in rng.sample(range(NODES), rng.randint(2, 4)):
        phase = 0.0 if victim < EARLY else late
        beat = phase + rng.randrange(int(late) + 8, 150) * BEAT
        kind = rng.choice(kinds)
        if kind == "blip":
            down = [(beat + 0.1, beat + 0.1 + rng.uniform(0.1, EXPIRY - 1.2))]
        elif kind == "outage":
            down = [(beat + 0.1, beat + 0.1 + rng.uniform(EXPIRY, 20.0))]
        elif kind == "flap":
            down = [(beat + 0.1, beat + 0.3), (beat + 0.5, None)]
            if rng.random() < 0.5:          # and come back for good
                down[-1] = (beat + 0.5, beat + 0.5 + rng.uniform(1.0, 9.0))
        else:
            down = [(beat + 0.1, None)]
        for fail_at, recover_at in down:
            ops.append((fail_at, "fail", victim))
            if recover_at is not None:
                ops.append((recover_at, "recover", victim))
    return sorted(ops, key=lambda op: (op[0], op[1]))


def _run(rm_cls, ops):
    env = Environment()
    machine = Machine(env, stampede(num_nodes=NODES))
    rm = rm_cls(env, CONFIG)
    allocations, liveness = [], []
    rm.lost_nodes = _RecordingSet(env, liveness)
    nms = [_RecordingNM(env, node, CONFIG, allocations)
           for node in machine.nodes]
    for nm in nms[:EARLY]:
        rm.register_node_manager(nm)
    env.run(env.process(rm.start()))
    for nm in nms[:EARLY]:
        env.process(nm.start())
    names = [nm.name for nm in nms]
    apps = []

    def driver():
        start = env.now
        for op in ops:
            yield env.timeout(max(0.0, start + op[0] - env.now))
            if op[1] == "register":
                for nm in nms[EARLY:]:
                    rm.register_node_manager(nm)
                    env.process(nm.start())
            elif op[1] == "submit":
                _, _, index, am_mb, waves = op
                apps.append(rm.submit_application(AppSpec(
                    name=f"app-{index}", am_resource=YarnResource(am_mb, 1),
                    am_program=_am_program(waves, names))))
            elif op[1] == "fail":
                nms[op[2]].node.fail()
            else:
                nms[op[2]].node.recover()

    env.process(driver())
    env.run(until=env.now + HORIZON)
    return (allocations, liveness, sorted(rm.lost_nodes),
            [(app.app_id, app.state) for app in apps],
            rm.cluster_metrics())


SEEDS = list(range(24))


@pytest.mark.parametrize("seed", SEEDS)
def test_grouped_tick_matches_per_node_processes(seed):
    ops = _program(seed)
    grouped = _run(ResourceManager, ops)
    assert grouped == _run(PerNodeHeartbeatResourceManager, ops)
    allocations, liveness, *_ = grouped
    assert len(allocations) >= 8         # at least every AM was placed


def test_programs_reach_both_phases_and_every_liveness_path():
    """The sample is only an oracle if it reaches the interesting
    transitions: allocations on late-registered NMs, nodes declared
    lost, and lost nodes coming back."""
    late_allocations = lost = back = 0
    late = {f"stampede-n{i:04d}" for i in range(EARLY, NODES)}
    for seed in SEEDS:
        allocations, liveness, *_ = _run(ResourceManager, _program(seed))
        late_allocations += sum(1 for a in allocations if a[3] in late)
        lost += sum(1 for entry in liveness if entry[1] == "lost")
        back += sum(1 for entry in liveness if entry[1] == "back")
    assert late_allocations > 100 and lost > 20 and back > 10


def _idle_steps(rm_cls, seconds=100.0):
    """Events over ``seconds`` of an idle cluster whose first three NMs
    registered before the RM started and the other three 0.5 s after."""
    env = Environment()
    machine = Machine(env, stampede(num_nodes=NODES))
    rm = rm_cls(env, CONFIG)
    nms = [NodeManager(env, node, CONFIG) for node in machine.nodes]
    for nm in nms[:EARLY]:
        rm.register_node_manager(nm)
    env.run(env.process(rm.start()))
    env.run(until=env.now + 0.5)
    for nm in nms[EARLY:]:
        rm.register_node_manager(nm)
    env.run(env.all_of([env.process(nm.start()) for nm in nms]))
    before = env.steps
    env.run(until=env.now + seconds)
    return env.steps - before


def test_one_tick_per_registration_instant():
    """Two registration instants, two ticks per beat, however many NMs
    share each; the oracle pays one tick per NM."""
    assert _idle_steps(ResourceManager) == 2 * 100
    assert _idle_steps(PerNodeHeartbeatResourceManager) == NODES * 100
