"""Equivalence of the virtual-clock pipe and the old full-scan model.

The O(log n) :class:`SharedBandwidthPipe` tracks one virtual service
clock and per-transfer finish credits; the seed implementation kept a
per-transfer ``remaining`` counter and rescanned every active transfer
on every state change.  Both describe the same exact processor-sharing
queue, so completion times must agree.  ``_ReferencePipe`` below is the
seed algorithm, kept verbatim as the test oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import SimSanitizer
from repro.cluster.storage import (
    GB,
    MB,
    SharedBandwidthPipe,
    StorageSpec,
    StorageVolume,
)
from repro.sim import Environment
from repro.sim.engine import Event, SimulationError


class _RefTransfer:
    __slots__ = ("remaining", "event")

    def __init__(self, remaining, event):
        self.remaining = remaining
        self.event = event


class _ReferencePipe:
    """The seed's exact-PS pipe: O(n) settle, full rescan per change."""

    def __init__(self, env, aggregate_bw, per_stream_bw=None, latency=0.0):
        self.env = env
        self.aggregate_bw = float(aggregate_bw)
        self.per_stream_bw = float(per_stream_bw) if per_stream_bw else None
        self.latency = float(latency)
        self._active = {}
        self._next_id = 0
        self._last_update = env.now
        self._wake_generation = 0

    def current_rate(self):
        n = max(1, len(self._active))
        rate = self.aggregate_bw / n
        if self.per_stream_bw is not None:
            rate = min(rate, self.per_stream_bw)
        return rate

    def _single_stream_rate(self):
        rate = self.aggregate_bw
        if self.per_stream_bw is not None:
            rate = min(rate, self.per_stream_bw)
        return rate

    def transfer(self, nbytes):
        event = Event(self.env)
        if nbytes == 0:
            if self.latency > 0:
                self.env.timeout(self.latency).callbacks.append(
                    lambda _: event.succeed())
            else:
                event.succeed()
            return event
        self._settle()
        tid = self._next_id
        self._next_id += 1
        latency_bytes = self.latency * self._single_stream_rate()
        self._active[tid] = _RefTransfer(float(nbytes) + latency_bytes,
                                         event)
        self._reschedule()
        return event

    def _settle(self):
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._active:
            return
        rate = self.current_rate()
        for tr in self._active.values():
            tr.remaining -= rate * dt

    def _reschedule(self):
        self._wake_generation += 1
        if not self._active:
            return
        generation = self._wake_generation
        rate = self.current_rate()
        min_remaining = min(tr.remaining for tr in self._active.values())
        delay = max(0.0, min_remaining / rate)
        due = [tid for tid, tr in self._active.items()
               if tr.remaining <= min_remaining * (1 + 1e-12)]
        timeout = self.env.timeout(delay)

        def _on_wake(_event):
            if generation != self._wake_generation:
                return
            self._settle()
            finished = set(due)
            finished.update(tid for tid, tr in self._active.items()
                            if tr.remaining <= 1e-9)
            for tid in finished:
                self._active.pop(tid).event.succeed()
            self._reschedule()

        timeout.callbacks.append(_on_wake)


def _completion_times(make_pipe, schedule, debug=False):
    """Run ``schedule`` = [(start_delay, nbytes), ...] through a pipe;
    each worker sleeps its delay, transfers, and records env.now."""
    env = Environment()
    pipe = make_pipe(env)
    finish = {}

    def worker(i, delay, size):
        if delay > 0:
            yield env.timeout(delay)
        yield pipe.transfer(size)
        finish[i] = env.now

    procs = [env.process(worker(i, d, s))
             for i, (d, s) in enumerate(schedule)]
    env.run(env.all_of(procs))
    return finish


# Burst shapes: staggered arrivals, duplicate sizes (simultaneous
# completions), zero-byte entries (latency-only path).
_SCHEDULES = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.001, 0.01, 0.25, 1.0]),
              st.sampled_from([0, 1, 7, 64, 100, 100, 4096, 10**6])),
    min_size=1, max_size=16)


@given(schedule=_SCHEDULES,
       per_stream=st.sampled_from([None, 40.0, 1000.0]),
       latency=st.sampled_from([0.0, 0.002]))
@settings(max_examples=120, deadline=None)
def test_virtual_clock_matches_reference(schedule, per_stream, latency):
    new = _completion_times(
        lambda env: SharedBandwidthPipe(
            env, aggregate_bw=100.0, per_stream_bw=per_stream,
            latency=latency),
        schedule)
    old = _completion_times(
        lambda env: _ReferencePipe(
            env, aggregate_bw=100.0, per_stream_bw=per_stream,
            latency=latency),
        schedule)
    assert new.keys() == old.keys()
    for i in new:
        assert new[i] == pytest.approx(old[i], rel=1e-9, abs=1e-9)


@given(schedule=_SCHEDULES)
@settings(max_examples=60, deadline=None)
def test_sanitized_shadow_ledger_agrees(schedule):
    """With the sanitizer installed the pipe keeps the old per-transfer
    ledger and asserts it against the credit algebra at every settle;
    any divergence raises — and results match the unchecked run."""
    def make_sanitized(env):
        SimSanitizer.install(env)
        return SharedBandwidthPipe(env, aggregate_bw=100.0, latency=0.001)

    checked = _completion_times(make_sanitized, schedule)
    plain = _completion_times(
        lambda env: SharedBandwidthPipe(env, aggregate_bw=100.0,
                                        latency=0.001),
        schedule)
    assert checked == plain


def test_transfer_many_equals_one_summed_transfer():
    """A coalesced batch is one transfer of the summed size: one
    latency charge, one completion event."""
    sizes = [100.0, 50.0, 0.0, 350.0]

    def run(make_event):
        env = Environment()
        pipe = SharedBandwidthPipe(env, aggregate_bw=100.0, latency=0.5)
        done = {}

        def worker():
            yield make_event(pipe)
            done["t"] = env.now

        env.run(env.process(worker()))
        return done["t"], pipe.bytes_moved

    batched = run(lambda pipe: pipe.transfer_many(sizes))
    summed = run(lambda pipe: pipe.transfer(sum(sizes)))
    assert batched == summed

    env = Environment()
    pipe = SharedBandwidthPipe(env, aggregate_bw=100.0)
    with pytest.raises(SimulationError):
        pipe.transfer_many([10.0, -1.0])


def test_volume_read_write_many_accounting():
    env = Environment()
    vol = StorageVolume(env, StorageSpec(name="v", aggregate_bw=100.0,
                                         capacity=500.0))
    env.run(vol.write_many([100.0, 200.0]))
    assert vol.used == 300.0
    assert vol.write_bytes == 300.0
    env.run(vol.read_many([50.0, 50.0]))
    assert vol.read_bytes == 100.0
    with pytest.raises(SimulationError):
        vol.write_many([150.0, 100.0])  # 250 > 200 free


def test_idle_pipe_resets_virtual_clock():
    """After the pipe drains, a fresh transfer sees the same algebra as
    a fresh pipe (V reset bounds floating-point drift)."""
    env = Environment()
    pipe = SharedBandwidthPipe(env, aggregate_bw=100.0)
    times = []

    def worker():
        yield pipe.transfer(250.0)
        times.append(env.now)
        yield env.timeout(1.0)
        yield pipe.transfer(250.0)
        times.append(env.now)

    env.run(env.process(worker()))
    assert times[0] == pytest.approx(2.5)
    assert times[1] == pytest.approx(6.0)
    assert pipe.active_streams == 0


def test_many_stream_contention_exact():
    """n equal streams on an uncapped pipe all finish at n*size/bw."""
    env = Environment()
    pipe = SharedBandwidthPipe(env, aggregate_bw=1 * GB)
    finish = []

    def worker():
        yield pipe.transfer(10 * MB)
        finish.append(env.now)

    procs = [env.process(worker()) for _ in range(64)]
    env.run(env.all_of(procs))
    expected = 64 * 10 * MB / (1 * GB)
    assert all(t == pytest.approx(expected) for t in finish)
