"""Trace spans: nested timing intervals with Chrome trace_event export.

Spans model the pilot -> agent -> unit -> container nesting of a run.
Because the simulation interleaves many generator processes, there is
no usable call stack to infer parents from — parents are passed
explicitly at :meth:`Tracer.begin` time, and each span lives on a
*track* (one row in the trace viewer; by convention one track per
pilot and one per unit, so phase and container spans nest by time
containment inside their unit's row).

Exports:

* :meth:`Tracer.to_jsonl` — one JSON object per span, with explicit
  ``parent`` ids (lossless; the round-trip format).
* :meth:`Tracer.chrome_trace` — the Chrome ``trace_event`` JSON dict
  (``{"traceEvents": [...]}``) that loads directly in
  ``chrome://tracing`` and Perfetto, using complete ("X") events plus
  thread-name metadata, with timestamps in microseconds.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Dict, List, Optional

from repro.telemetry.bus import TelemetryEvent

#: Simulated seconds -> trace microseconds.
_US = 1_000_000.0


class Span:
    """One timed interval; ``end`` is None while the span is open."""

    __slots__ = ("sid", "name", "cat", "start", "end", "args",
                 "parent_id", "track")

    def __init__(self, sid: int, name: str, cat: str, start: float,
                 track: str, parent_id: Optional[int],
                 args: Dict[str, Any]):
        self.sid = sid
        self.name = name
        self.cat = cat
        self.start = start
        self.end: Optional[float] = None
        self.track = track
        self.parent_id = parent_id
        self.args = args

    def to_dict(self) -> Dict[str, Any]:
        return {"sid": self.sid, "name": self.name, "cat": self.cat,
                "start": self.start, "end": self.end,
                "track": self.track, "parent": self.parent_id,
                "args": self.args}


class Tracer:
    """Creates, finishes and exports spans."""

    def __init__(self, env):
        self.env = env
        self.spans: List[Span] = []
        self._sid = itertools.count(1)
        self._tracks: Dict[str, int] = {}    # track name -> chrome tid

    # ---------------------------------------------------------- recording
    def begin(self, name: str, cat: str = "span",
              parent: Optional[Span] = None,
              track: Optional[str] = None, **args: Any) -> Span:
        """Open a span now.  ``track`` defaults to the parent's track."""
        if track is None:
            track = parent.track if parent is not None else name
        span = Span(sid=next(self._sid), name=name, cat=cat,
                    start=self.env.now, track=track,
                    parent_id=parent.sid if parent is not None else None,
                    args=args)
        self.spans.append(span)
        return span

    def end(self, span: Span, **args: Any) -> Span:
        """Close a span now (idempotent — re-closing keeps the first end)."""
        if span.end is None:
            span.end = self.env.now
        if args:
            span.args.update(args)
        return span

    def span(self, name: str, **kwargs):
        """Context manager for spans that do not cross a sim yield."""
        return _SpanContext(self, name, kwargs)

    # ------------------------------------------------------------- export
    def to_jsonl(self) -> str:
        """Lossless span dump, one JSON object per line."""
        return "\n".join(json.dumps(s.to_dict(), default=str)
                         for s in self.spans)

    def _tid(self, track: str) -> int:
        tid = self._tracks.get(track)
        if tid is None:
            tid = len(self._tracks) + 1
            self._tracks[track] = tid
        return tid

    def chrome_trace(self, instants: Optional[List[TelemetryEvent]] = None
                     ) -> Dict[str, Any]:
        """Chrome ``trace_event`` JSON for chrome://tracing / Perfetto.

        Spans become complete ("X") events; open spans are clipped to
        the current simulated time.  ``instants`` (e.g. recorded bus
        events) become instant ("i") events on their own track.
        """
        events: List[Dict[str, Any]] = []
        now = self.env.now
        for span in self.spans:
            end = span.end if span.end is not None else now
            events.append({
                "name": span.name, "cat": span.cat, "ph": "X",
                "ts": span.start * _US,
                "dur": max(0.0, (end - span.start) * _US),
                "pid": 1, "tid": self._tid(span.track),
                "args": dict(span.args, sid=span.sid,
                             parent=span.parent_id),
            })
        for event in instants or ():
            events.append({
                "name": f"{event.category}.{event.name}",
                "cat": event.category, "ph": "i", "s": "g",
                "ts": event.time * _US, "pid": 1,
                "tid": self._tid("events"),
                "args": dict(event.payload),
            })
        # Parents first at equal timestamps so viewers nest X events
        # deterministically; instants sort with dur 0 after any parent.
        events.sort(key=lambda e: (e["ts"], -e.get("dur", 0.0)))
        meta: List[Dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": 1,
            "args": {"name": "repro simulation"}}]
        for track, tid in sorted(self._tracks.items(), key=lambda kv: kv[1]):
            meta.append({"name": "thread_name", "ph": "M", "pid": 1,
                         "tid": tid, "args": {"name": track}})
            meta.append({"name": "thread_sort_index", "ph": "M", "pid": 1,
                         "tid": tid, "args": {"sort_index": tid}})
        return {"traceEvents": meta + events,
                "displayTimeUnit": "ms",
                "otherData": {"clock": "simulated seconds x 1e6"}}


class _SpanContext:
    """``with tracer.span("name"): ...`` for non-yielding sections."""

    def __init__(self, tracer: Tracer, name: str, kwargs: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.kwargs = kwargs
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self.tracer.begin(self.name, **self.kwargs)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer.end(self.span,
                        **({"error": repr(exc)} if exc else {}))
