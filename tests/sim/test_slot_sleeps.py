"""A process yields Events only.

The kernel has one sleep, ``yield env.timeout(delay)``; any other
yielded value — a string, a bare number, a bool — is a bug in the
process and crashes the simulation loudly.
"""

import pytest

from repro.sim.engine import Environment, SimulationError


def test_non_numeric_non_event_yield_still_crashes():
    for value in ("soon", 1.0, 3):
        env = Environment()

        def bad(value=value):
            yield value

        env.process(bad())
        with pytest.raises(SimulationError, match="expected an Event"):
            env.run()


def test_negative_number_yield_crashes_the_simulation():
    # A negative number is not a sleep either: it crashes like any non-Event.
    env = Environment()

    def bad():
        yield -0.5

    env.process(bad())
    with pytest.raises(SimulationError, match="expected an Event"):
        env.run()


def test_bool_yield_is_rejected():
    # bools are ints in Python, but a `yield True` is always a bug.
    env = Environment()

    def bad():
        yield True

    env.process(bad())
    with pytest.raises(SimulationError, match="expected an Event"):
        env.run()
