"""Live observability for the pilot/YARN/HDFS stack.

The paper's evaluation harvests timestamped state transitions *after*
a run; real RADICAL-Pilot ships a profiling/analytics layer that
records them *live*.  This subsystem is our equivalent:

* :mod:`repro.telemetry.bus` — a sim-clock-aware event bus with typed
  events and subscriber filtering;
* :mod:`repro.telemetry.metrics` — counters, gauges and time-bucketed
  histograms keyed on simulation time;
* :mod:`repro.telemetry.tracing` — nested trace spans
  (pilot -> agent -> unit -> container) exporting JSONL and Chrome
  ``trace_event`` JSON (opens in chrome://tracing / Perfetto).

Telemetry is **opt-in per environment** and off by default: call
:func:`install` on a :class:`~repro.sim.engine.Environment` before the
components you care about start.  Instrumented call sites fetch
``env.telemetry`` (``None`` unless installed), so a disabled run pays
one attribute load and a branch per hook — nothing else.

    from repro.sim import Environment
    from repro import telemetry

    env = Environment()
    tel = telemetry.install(env)
    ...  # build site/session/managers on env, run the workload
    open("trace.json", "w").write(json.dumps(tel.tracer.chrome_trace()))
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.bus import EventBus, Subscription, TelemetryEvent
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.tracing import Span, Tracer


class Telemetry:
    """One environment's telemetry hub: bus + metrics + tracer."""

    def __init__(self, env, record_events: bool = True,
                 sample_resolution: Optional[float] = None):
        self.env = env
        self.bus = EventBus(env, record=record_events)
        self.metrics = MetricsRegistry(
            env, sample_resolution=sample_resolution)
        self.tracer = Tracer(env)

    # Convenience pass-throughs used by instrumented components.
    def emit(self, category: str, name: str, **payload) -> TelemetryEvent:
        return self.bus.emit(category, name, **payload)

    def counter(self, name: str, **labels) -> Counter:
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self.metrics.gauge(name, **labels)

    def histogram(self, name: str, **kwargs) -> Histogram:
        return self.metrics.histogram(name, **kwargs)


def install(env, record_events: bool = True,
            sample_resolution: Optional[float] = None) -> Telemetry:
    """Attach (or return the existing) telemetry hub to ``env``.

    ``sample_resolution`` (simulated seconds) opts counters and gauges
    into batched sampling: samples landing in the same window coalesce
    into one, so instrumentation stays near-zero-cost at 10k-node
    scale.  ``None`` (default) records every sample exactly.
    """
    existing = getattr(env, "telemetry", None)
    if existing is not None:
        return existing
    telemetry = Telemetry(env, record_events=record_events,
                          sample_resolution=sample_resolution)
    env.telemetry = telemetry
    return telemetry


def uninstall(env) -> None:
    """Detach telemetry from ``env`` (subsequent hooks become no-ops)."""
    env.telemetry = None


__all__ = [
    "Counter",
    "EventBus",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Subscription",
    "Telemetry",
    "TelemetryEvent",
    "Tracer",
    "install",
    "uninstall",
]
