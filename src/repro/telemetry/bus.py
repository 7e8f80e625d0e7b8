"""The telemetry event bus: typed events with subscriber filtering.

Every component of the stack (agent, YARN daemons, HDFS, batch
schedulers) emits :class:`TelemetryEvent` records through one
:class:`EventBus` attached to the simulation environment.  Delivery is
synchronous — an emit reaches every matching subscriber before the
emitter continues — so subscribers observe events in a deterministic
total order even when many components act at the same simulated time:
the bus stamps each event with a monotonically increasing sequence
number, mirroring the kernel's ``(time, priority, sequence)`` ordering.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Well-known event categories (components are free to add their own).
CATEGORIES = ("pilot", "unit", "agent", "yarn", "hdfs", "rms", "metric")


@dataclass(frozen=True)
class TelemetryEvent:
    """One emitted fact: who (category), what (name), when, and payload."""

    time: float
    seq: int
    category: str
    name: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"t": self.time, "seq": self.seq, "cat": self.category,
                "name": self.name, **self.payload}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), default=str, sort_keys=True)


class Subscription:
    """One subscriber: a callback plus its event filter.

    ``categories``/``names`` restrict delivery to matching events
    (``None`` = no restriction); ``predicate`` is an arbitrary final
    filter on the event object.  Detach with :meth:`cancel`.
    """

    def __init__(self, bus: "EventBus",
                 callback: Callable[[TelemetryEvent], None],
                 categories: Optional[Iterable[str]] = None,
                 names: Optional[Iterable[str]] = None,
                 predicate: Optional[Callable[[TelemetryEvent], bool]]
                 = None):
        self.bus = bus
        self.callback = callback
        self.categories = frozenset(categories) if categories else None
        self.names = frozenset(names) if names else None
        self.predicate = predicate
        self.delivered = 0

    def matches(self, event: TelemetryEvent) -> bool:
        if self.categories is not None and \
                event.category not in self.categories:
            return False
        if self.names is not None and event.name not in self.names:
            return False
        if self.predicate is not None and not self.predicate(event):
            return False
        return True


class EventBus:
    """Synchronous pub/sub hub for telemetry events.

    ``record=True`` (the default) keeps every emitted event in
    :attr:`events`, which is what the JSONL export and the profiler
    bridge replay from; pass ``record=False`` for a pure fan-out bus.
    """

    def __init__(self, env, record: bool = True):
        self.env = env
        self.record = record
        self.events: List[TelemetryEvent] = []
        self._seq = itertools.count()
        self._subscriptions: List[Subscription] = []
        self.emitted = 0
        self.dropped = 0

    # ---------------------------------------------------------- emission
    def emit(self, category: str, name: str, **payload: Any
             ) -> TelemetryEvent:
        """Publish one event at the current simulated time."""
        event = TelemetryEvent(time=self.env.now, seq=next(self._seq),
                               category=category, name=name,
                               payload=payload)
        self.emitted += 1
        if self.record:
            self.events.append(event)
        # Iterate over a copy: callbacks may subscribe.
        for sub in list(self._subscriptions):
            if sub.matches(event):
                sub.delivered += 1
                sub.callback(event)
        return event

    # ------------------------------------------------------ subscription
    def subscribe(self, callback: Callable[[TelemetryEvent], None],
                  categories: Optional[Iterable[str]] = None,
                  names: Optional[Iterable[str]] = None,
                  predicate: Optional[Callable[[TelemetryEvent], bool]]
                  = None) -> Subscription:
        """Register ``callback`` for events matching the filter."""
        sub = Subscription(self, callback, categories=categories,
                           names=names, predicate=predicate)
        self._subscriptions.append(sub)
        return sub

    # ----------------------------------------------------------- queries
    def select(self, category: Optional[str] = None,
               name: Optional[str] = None) -> List[TelemetryEvent]:
        """Recorded events matching ``category``/``name`` (None = any)."""
        return [e for e in self.events
                if (category is None or e.category == category)
                and (name is None or e.name == name)]

    def to_jsonl(self) -> str:
        """All recorded events, one JSON object per line."""
        return "\n".join(e.to_json() for e in self.events)
