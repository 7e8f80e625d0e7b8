"""The phase-grid clock of a periodic loop (:class:`repro.sim.Ticker`).

A busy ticker ticks every grid instant ``epoch + k * interval`` exactly
once, in order; an idle one keeps nothing queued and, once woken,
resumes on the first grid instant strictly after now.
"""

import math

import pytest

from repro.sim import Environment, Ticker


def _busy_ticks(epoch, interval, ticks):
    """The instants of the first ``ticks`` ticks of an always-busy
    ticker created at ``epoch``."""
    env = Environment(initial_time=epoch)
    ticker = Ticker(env, interval)
    times = []

    def loop():
        for _ in range(ticks):
            yield from ticker.tick(lambda: True)
            times.append(env.now)

    env.process(loop())
    env.run()
    return times


@pytest.mark.parametrize("epoch, interval, ticks", [
    (0.0, 0.05, 100),
    (47.5888027222004, 30.0, 1000),
])
def test_busy_ticker_ticks_each_grid_instant_once(epoch, interval, ticks):
    """``k = floor((now - epoch) / interval) + 1`` alone re-ticks an
    instant that rounding puts just below its grid point: t = 0.25
    (k = 5) on the first grid and t = 16397.5888027222 (k = 545) on the
    second, and then every later tick at the same instant, forever."""
    times = _busy_ticks(epoch, interval, ticks)
    assert len(times) == ticks
    assert all(later > earlier for earlier, later in zip(times, times[1:]))
    for k, now in enumerate(times, 1):
        assert now == pytest.approx(epoch + k * interval, rel=1e-12)


def test_idle_ticker_parks_and_resumes_on_its_grid():
    env = Environment()
    ticker = Ticker(env, 2.0)
    work, ticks = [], []

    def loop():
        while True:
            yield from ticker.tick(lambda: bool(work))
            ticks.append(env.now)
            work.clear()

    env.process(loop())
    env.run(until=100.0)
    assert ticks == [] and env.peek() == math.inf     # parked: no event
    env.run(until=105.3)
    work.append("job")
    ticker.wake()
    ticker.wake()                                      # idempotent
    env.run(until=120.0)
    assert ticks == [106.0]
    work.append("job")                                 # at a grid instant
    env.run(until=122.0)
    ticker.wake()
    env.run(until=130.0)
    assert ticks == [106.0, 124.0]
