"""Event loop, events and processes for the simulation kernel.

The design follows the classic process-interaction style: a *process* is
a Python generator that yields :class:`Event` objects; the environment
resumes the generator when the yielded event fires.  Events fire in
``(time, priority, sequence)`` order, giving a deterministic total order
for simultaneous events — crucial for reproducible benchmarks.

A process may also yield a bare ``float``/``int`` to sleep that many
simulated seconds: the kernel schedules a slot-based :class:`_Sleep`
entry instead of a :class:`Timeout` event, which skips two object
allocations per sleep.  ``yield delay`` is behaviourally identical to
``yield env.timeout(delay)`` (same firing time, priority and sequence
ordering); it is the preferred form on hot paths.
"""

from __future__ import annotations

import os
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Generator, Iterable, Optional

#: Event priorities.  Lower values fire first at equal timestamps.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class SimulationError(RuntimeError):
    """Raised for illegal kernel usage (double trigger, negative delay...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt()``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A condition that may fire once, carrying an optional value.

    Processes wait on events by ``yield``-ing them.  An event is either
    *pending*, *triggered* (scheduled to fire) or *processed* (callbacks
    ran).  Failing an event propagates the exception into every waiting
    process.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed", "_triggered")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._processed = False
        self._triggered = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """False when the event carries an exception."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or the exception, for failed events)."""
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Schedule this event to fire with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        self.env._schedule(self, PRIORITY_NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule this event to fire by raising ``exception`` in waiters."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() needs an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule(self, PRIORITY_NORMAL)
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        for callback in callbacks or ():
            callback(self)


def _make_wake() -> "Event":
    """The shared, pre-processed wake event handed to slot-sleep resumes.

    Never scheduled and never mutated: processes resumed from a
    :class:`_Sleep` only read ``_ok``/``_value`` from it.
    """
    wake = Event.__new__(Event)
    wake.env = None
    wake.callbacks = None
    wake._value = None
    wake._ok = True
    wake._processed = True
    wake._triggered = True
    return wake


_WAKE = _make_wake()


class _Sleep:
    """Heap slot for a bare-number yield: resumes its process directly.

    Yielding a plain ``float``/``int`` from a process is the slot-based
    fast path for pure sleeps: no :class:`Event`, no callbacks list, no
    :class:`Timeout` — just one tuple on the event queue holding this
    slot.  At leadership-class sizes (10k nodes, 1M units) sleeps
    dominate the event mix, so shaving the two object allocations and
    the callback indirection per sleep is a first-order win.

    ``proc`` is cleared by :meth:`Process.interrupt` so a stale slot
    never resumes an interrupted process a second time.
    """

    __slots__ = ("proc",)

    def __init__(self, proc: "Process"):
        self.proc = proc

    def _run_callbacks(self) -> None:
        proc = self.proc
        if proc is not None:
            proc._target = None
            proc._resume(_WAKE)


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds in the future."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        # Timeouts dominate the event mix of every workload, so the
        # base-class __init__ is inlined and the event goes onto the
        # queue pre-triggered in one shot.
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self._triggered = True
        self.delay = delay
        env._schedule(self, PRIORITY_NORMAL, delay)


class Initialize(Event):
    """Internal: first resumption of a freshly-spawned process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._triggered = True
        env._schedule(self, PRIORITY_URGENT)


class Process(Event):
    """Wraps a generator; itself an event that fires when the generator ends.

    The process's value is the generator's return value; an uncaught
    exception fails the process event (and escapes to the environment if
    nobody is waiting on it).
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator,
                 name: Optional[str] = None):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        # The live frame IS the process-interaction model; a checkpoint
        # replays processes from the event log instead of serializing it.
        self._generator = generator
        #: What the process is suspended on: an Event, a _Sleep slot
        #: (bare-number yield), or None while running / finished.
        self._target: Optional[object] = None
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True until the underlying generator has finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process blocked on an event detaches it from that event first.
        """
        if self._triggered:
            raise SimulationError(f"{self.name} already terminated")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._triggered = True
        event.callbacks.append(self._deliver_interrupt)
        self.env._schedule(event, PRIORITY_URGENT)
        self._detach()

    def _deliver_interrupt(self, event: Event) -> None:
        """Throw a scheduled interrupt into the process.

        Several interrupts can be pending at one instant (a node crash
        and a container kill).  One that finds the process finished is
        dropped, as in SimPy; one that finds it waiting again (it caught
        an earlier interrupt, or interrupted itself) detaches it first.
        """
        if self._triggered:
            return
        self._detach()
        self._resume(event)

    def _detach(self) -> None:
        """Stop waiting on the current target, so it does not resume the
        process a second time."""
        target = self._target
        if target is not None:
            if type(target) is _Sleep:
                target.proc = None
            elif target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:  # pragma: no cover - already detached
                    pass
            self._target = None

    def _resume(self, event: Event) -> None:
        env = self.env
        generator = self._generator
        env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    # The exception escapes into the generator.
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                env._active_process = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                env._active_process = None
                if not self.callbacks:
                    # Nobody is waiting: crash the simulation loudly
                    # rather than losing the error.
                    env._crash(exc, self)
                    return
                self._triggered = True
                self._ok = False
                self._value = exc
                env._schedule(self, PRIORITY_NORMAL)
                return

            if not isinstance(next_event, Event):
                if type(next_event) is float or type(next_event) is int:
                    # Slot-based sleep: schedule one lightweight heap
                    # slot and suspend — no Event/Timeout allocation.
                    # Scheduling at the same point a Timeout would have
                    # been pushed keeps (time, priority, seq) ordering
                    # identical to ``yield env.timeout(delay)``.
                    if next_event < 0:
                        env._active_process = None
                        env._crash(SimulationError(
                            f"negative delay {next_event}"), self)
                        return
                    slot = _Sleep(self)
                    env._schedule(slot, PRIORITY_NORMAL, next_event)
                    self._target = slot
                    env._active_process = None
                    return
                env._active_process = None
                env._crash(
                    SimulationError(
                        f"process {self.name!r} yielded {next_event!r}, "
                        "expected an Event or a number"),
                    self)
                return
            if next_event.callbacks is None:
                # Already processed: resume immediately with its value.
                event = next_event
                continue
            next_event.callbacks.append(self._resume)
            self._target = next_event
            env._active_process = None
            return


class Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")
            if event.callbacks is None:
                self._check(event)
            elif not self._triggered:
                event.callbacks.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {e: e.value for e in self._events if e.processed}

    def _detach(self) -> None:
        """Unsubscribe from every operand that has not dispatched yet.

        Called once, when the condition settles.  Without it a
        long-lived operand (a node's failure event raced against one
        timeout per task) keeps every settled condition reachable and
        walks all of them when it finally fires.  Operands that are
        mid-dispatch or processed (``callbacks is None``) are skipped;
        ``list.remove`` keeps the other subscribers' relative order.
        Operand conditions are left subscribed to *their* operands:
        they are ordinary events somebody else may still wait on.
        """
        check = self._check
        for event in self._events:
            callbacks = event.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(check)
                except ValueError:
                    pass


class AnyOf(Condition):
    """Fires when the first of the given events fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
        else:
            self.succeed(self._collect())
        self._detach()


class AllOf(Condition):
    """Fires when all of the given events have fired."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            self._detach()
            return
        self._count += 1
        if self._count == len(self._events):
            # Every operand has dispatched: nothing left to detach from.
            self.succeed(self._collect())


class Ticker:
    """The clock of a periodic loop that parks while it has no work.

    ``yield from ticker.tick(busy)`` parks while ``busy()`` is false
    (until :meth:`wake`), then sleeps to the first instant of the grid
    ``epoch + k * interval`` (``epoch``: the creation instant) strictly
    after now.  ``k`` strictly advances, so an instant that rounding
    puts just below its grid point is never ticked twice.
    """

    __slots__ = ("env", "interval", "epoch", "_k", "_wake")

    def __init__(self, env: "Environment", interval: float):
        self.env, self.interval, self.epoch = env, interval, env.now
        self._k = 0
        self._wake: Optional[Event] = None

    def wake(self) -> None:
        """Un-park the loop (work just arrived); a no-op if not parked."""
        if self._wake is not None:
            self._wake.succeed()
            self._wake = None

    def tick(self, busy: Callable[[], bool]) -> Generator:
        env = self.env
        while not busy():
            self._wake = Event(env)
            yield self._wake
        k = max(self._k, int((env.now - self.epoch) // self.interval)) + 1
        while self.epoch + k * self.interval <= env.now:
            k += 1
        self._k = k
        yield env.timeout(self.epoch + k * self.interval - env.now)


class Environment:
    """The simulation environment: clock + event queue + process spawner.

    ``telemetry`` is the optional observability hub
    (:func:`repro.telemetry.install` sets it); the class-level ``None``
    default keeps the disabled-path cost of every instrumentation hook
    to a single attribute load and branch.
    """

    #: Set by :func:`repro.telemetry.install`; ``None`` = disabled.
    telemetry = None
    #: Set by :meth:`repro.analysis.sanitizer.SimSanitizer.install`;
    #: ``None`` = disabled.  Instrumented components pay one attribute
    #: load and a branch when off, exactly like telemetry.
    sanitizer = None
    #: Set by :meth:`repro.faults.injector.FaultInjector.install`;
    #: ``None`` = no fault injection.  Clusters register themselves as
    #: fault targets when installed; the agent pipeline consults it for
    #: injected transient unit errors.  Same opt-in hub pattern as
    #: ``telemetry``/``sanitizer``.
    faults = None

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._steps = 0
        self._active_process: Optional[Process] = None
        self._crashed: Optional[BaseException] = None
        # One switch for the whole stack: REPRO_SANITIZE=1 arms the
        # runtime invariant checkers on every environment.  The import
        # is lazy and only attempted when the variable is set at all,
        # so the common path costs a single dict lookup.
        if os.environ.get("REPRO_SANITIZE"):
            from repro.analysis.sanitizer import (
                SimSanitizer,
                sanitize_enabled,
            )
            if sanitize_enabled():
                SimSanitizer.install(self)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def steps(self) -> int:
        """Total events processed so far (the replay barrier coordinate).

        Deterministic simulations process the same event sequence every
        run, so ``(now, steps, seq)`` uniquely identifies a point in the
        execution — :mod:`repro.persist` checkpoints record it and
        :meth:`replay_to` drives a fresh environment back to it.
        """
        return self._steps

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- primitives -------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Spawn ``generator`` as a process; returns its process event."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when any constituent fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all constituents have fired."""
        return AllOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        self._seq += 1
        _heappush(self._queue,
                  (self._now + delay, priority, self._seq, event))

    def _crash(self, exc: BaseException, process: Optional[Process]) -> None:
        self._crashed = exc
        exc.args = (f"unhandled error in process "
                    f"{process.name if process else '?'}: {exc}",)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise SimulationError("no scheduled events")
        self._now, _, _, event = _heappop(self._queue)
        self._steps += 1
        event._run_callbacks()
        if self._crashed is not None:
            exc, self._crashed = self._crashed, None
            raise exc

    def replay_to(self, steps: int, now: Optional[float] = None) -> None:
        """Process events until exactly ``steps`` total have run.

        The restore half of a checkpoint barrier: a deterministic
        simulation replayed from its initial state passes through the
        same event sequence, so stopping after the recorded step count
        reproduces the checkpointed engine state exactly — including
        same-timestamp events that a time-based ``run(until=...)``
        could not split.

        ``now`` re-applies the barrier's clock position: a
        ``run(until=T)`` parks the clock at ``T`` even when no event
        fires there, which replaying events alone cannot reproduce.
        """
        if steps < self._steps:
            raise SimulationError(
                f"cannot replay backwards: at step {self._steps}, "
                f"asked for {steps}")
        while self._steps < steps:
            if not self._queue:
                raise SimulationError(
                    f"replay barrier {steps} is unreachable: event "
                    f"queue exhausted at step {self._steps}")
            self.step()
        if now is not None and now != self._now:
            if now < self._now or (self._queue and now > self.peek()):
                raise SimulationError(
                    f"barrier clock {now} is unreachable from now="
                    f"{self._now} (next event at {self.peek()}); the "
                    f"replay diverged from the checkpointed run")
            self._now = now

    def snapshot_state(self) -> dict:
        """Canonical, JSON-able summary of the engine state.

        Live :class:`Event`/:class:`Process` objects cannot cross a
        process boundary, so the summary reduces each queue entry to
        its deterministic coordinates ``(time, priority, seq, kind,
        name)`` — enough for a restored environment to prove, by
        digest, that replay reconstructed an identical heap.
        """
        entries = []
        for time_, priority, seq, event in sorted(
                self._queue, key=lambda e: e[:3]):
            if type(event) is _Sleep:
                kind = "_Sleep"
                name = event.proc.name if event.proc is not None else None
            else:
                kind = type(event).__name__
                name = getattr(event, "name", None)
            entries.append([time_, priority, seq, kind, name])
        return {"now": self._now, "seq": self._seq,
                "steps": self._steps, "queue": entries}

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to exhaustion), a number (run until
        the clock reaches it), or an :class:`Event` (run until it fires,
        returning its value).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                if not stop_event.ok:
                    raise stop_event.value
                return stop_event.value
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"until={stop_time} lies in the past (now={self._now})")

        # The stepping loop is inlined (rather than calling self.step())
        # and specialised per stop condition: the per-event overhead here
        # bounds the throughput of every simulation in the repo.
        queue = self._queue
        pop = _heappop
        steps = self._steps
        try:
            if stop_event is None and stop_time == float("inf"):
                while queue:
                    self._now, _, _, event = pop(queue)
                    steps += 1
                    event._run_callbacks()
                    if self._crashed is not None:
                        exc, self._crashed = self._crashed, None
                        raise exc
            elif stop_event is not None:
                while queue and not stop_event._processed:
                    self._now, _, _, event = pop(queue)
                    steps += 1
                    event._run_callbacks()
                    if self._crashed is not None:
                        exc, self._crashed = self._crashed, None
                        raise exc
            else:
                while queue:
                    if queue[0][0] > stop_time:
                        self._now = stop_time
                        break
                    self._now, _, _, event = pop(queue)
                    steps += 1
                    event._run_callbacks()
                    if self._crashed is not None:
                        exc, self._crashed = self._crashed, None
                        raise exc
        finally:
            self._steps = steps

        if stop_event is not None:
            if not stop_event.processed:
                if until is not None and stop_event is until and not self._queue:
                    raise SimulationError(
                        "event queue empty but 'until' event never fired")
            if stop_event.processed:
                if not stop_event.ok:
                    raise stop_event.value
                return stop_event.value
        elif until is not None and self._now < stop_time and not self._queue:
            # Queue exhausted before the requested horizon: the clock
            # still advances to it, matching SimPy semantics.
            self._now = stop_time
        return None
