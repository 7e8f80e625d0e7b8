"""Storage bandwidth and capacity models.

:class:`SharedBandwidthPipe` implements an exact processor-sharing
queue: ``aggregate_bw`` bytes/s are divided fairly among the transfers
in flight, optionally capped at ``per_stream_bw`` per transfer.  Every
time the set of active transfers changes, per-stream rates are
recomputed and the next completion re-scheduled — so a burst of
concurrent readers sees precisely the slowdown a contended Lustre OST
pool would impose, while a single stream gets the full per-stream rate.

The accounting runs on a *virtual service clock*: ``V(t)`` is the
cumulative fair-share work (bytes) a transfer that has been in the pipe
since the last idle period would have received.  Because every active
transfer progresses at the same rate, ``V`` is piecewise-linear between
state changes and a transfer entering with ``remaining`` bytes of work
finishes exactly when ``V`` reaches its *finish credit*
``V(entry) + remaining``.  A state change therefore costs one ``V``
advance plus a heap push/pop — O(log n) — instead of decrementing and
rescanning every active transfer (O(n) per change, O(n²) per burst).
The per-stream cap keeps rates piecewise-constant, so the credit
algebra reproduces the full-scan model's completion times; when the
environment's :class:`~repro.analysis.sanitizer.SimSanitizer` is
installed (``REPRO_SANITIZE=1`` / ``Session(sanitize=True)``) the
credits are cross-checked against a shadow full-scan ledger on every
state change.

:class:`StorageVolume` couples a pipe with a capacity counter and a
flat per-operation latency (metadata round-trip for Lustre, seek for
local disks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop as _heappop, heappush as _heappush
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim.engine import Environment, Event, SimulationError

#: Convenience byte-size constants.
KB = 1024
MB = 1024 ** 2
GB = 1024 ** 3


@dataclass(frozen=True)
class StorageSpec:
    """Static description of a storage tier."""

    name: str
    aggregate_bw: float            # bytes/s shared across all streams
    per_stream_bw: Optional[float] = None  # bytes/s cap per stream
    latency: float = 0.0           # seconds per operation
    capacity: float = math.inf     # bytes


class SharedBandwidthPipe:
    """Processor-sharing bandwidth pipe (virtual-clock accounting).

    ``transfer(nbytes)`` returns an event that fires when the transfer
    completes under fair sharing.  Zero-byte transfers complete after
    the pipe's latency only.
    """

    def __init__(self, env: Environment, aggregate_bw: float,
                 per_stream_bw: Optional[float] = None,
                 latency: float = 0.0, name: str = "pipe"):
        if aggregate_bw <= 0:
            raise SimulationError("aggregate bandwidth must be positive")
        if per_stream_bw is not None and per_stream_bw <= 0:
            raise SimulationError("per-stream bandwidth must be positive")
        self.env = env
        self.name = name
        self.aggregate_bw = float(aggregate_bw)
        self.per_stream_bw = float(per_stream_bw) if per_stream_bw else None
        self.latency = float(latency)
        #: Min-heap of (finish_credit, tid, event) for in-flight
        #: transfers; a transfer completes when ``V`` reaches its credit.
        self._heap: List[Tuple[float, int, Event]] = []
        #: The virtual service clock ``V(t)``: cumulative fair-share
        #: work per stream (bytes) since the last idle period.
        self._virtual = 0.0
        self._next_id = 0
        self._last_update = env.now
        self._wake_generation = 0
        #: Shadow full-scan ledger (tid -> remaining), maintained while
        #: the environment's sanitizer is installed.
        self._shadow: Dict[int, float] = {}
        #: Whether the shadow ledger covers every in-flight transfer.
        #: A sanitizer installed mid-flight starts unsynced; the ledger
        #: is then rebuilt exactly from the finish credits.
        self._shadow_synced = True
        self.bytes_moved = 0.0  # lifetime accounting, for benchmarks

    def _sync_shadow(self) -> None:
        """(Re)build the shadow ledger from the finish credits.

        ``credit - V`` *is* the exact full-scan remainder, so a checker
        that appears while transfers are in flight starts from a ledger
        identical to one maintained from the beginning.
        """
        self._shadow = {tid: credit - self._virtual
                        for credit, tid, _ in self._heap}
        self._shadow_synced = True

    # -- public API --------------------------------------------------------
    @property
    def active_streams(self) -> int:
        """Number of transfers currently in flight."""
        return len(self._heap)

    def current_rate(self) -> float:
        """Per-stream rate (bytes/s) given current concurrency."""
        n = len(self._heap)
        rate = self.aggregate_bw / n if n > 1 else self.aggregate_bw
        if self.per_stream_bw is not None and rate > self.per_stream_bw:
            rate = self.per_stream_bw
        return rate

    def transfer(self, nbytes: float) -> Event:
        """Move ``nbytes`` through the pipe; event fires at completion."""
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes}")
        self.bytes_moved += nbytes
        event = Event(self.env)
        if nbytes == 0:
            if self.latency > 0:
                # Piggy-back on a timeout: fire after latency only.
                def _done(_):
                    event.succeed()
                self.env.timeout(self.latency).callbacks.append(_done)
            else:
                event.succeed()
            return event

        self._settle()
        tid = self._next_id
        self._next_id += 1
        # Latency is charged up-front by inflating the workload with an
        # equivalent byte count at the single-stream rate; this keeps the
        # whole pipe in one progress domain.
        work = float(nbytes) + self.latency * self._single_stream_rate()
        _heappush(self._heap, (self._virtual + work, tid, event))
        if self.env.sanitizer is not None:
            if not self._shadow_synced:
                self._sync_shadow()
            self._shadow[tid] = work
        else:
            self._shadow_synced = False
        self._reschedule()
        return event

    def transfer_many(self, sizes: Iterable[float]) -> Event:
        """Move a batch of chunks as one coalesced stream.

        One transfer (one latency charge, one completion event) for the
        summed byte count — the data-plane batching primitive behind
        coalesced shuffle fetches and multi-block reads.
        """
        total = 0.0
        for size in sizes:
            if size < 0:
                raise SimulationError(f"negative transfer size {size}")
            total += size
        return self.transfer(total)

    def set_bandwidth(self, aggregate_bw: float,
                      per_stream_bw: Optional[float] = None) -> None:
        """Change the pipe's rates mid-flight (network fault injection).

        In-flight transfers keep their remaining bytes and proceed at
        the new fair-share rate.  Because finish credits are
        rate-independent byte counts, settling ``V`` at the old rate,
        swapping the rates and rescheduling the next wake reproduces
        the full-scan model exactly — the shadow-ledger sanitizer
        checks keep passing across the change.
        """
        if aggregate_bw <= 0:
            raise SimulationError("aggregate bandwidth must be positive")
        if per_stream_bw is not None and per_stream_bw <= 0:
            raise SimulationError("per-stream bandwidth must be positive")
        self._settle()
        self.aggregate_bw = float(aggregate_bw)
        self.per_stream_bw = float(per_stream_bw) if per_stream_bw else None
        self._reschedule()

    def estimate_duration(self, nbytes: float, streams: int = 1) -> float:
        """Closed-form duration estimate at a fixed concurrency level.

        Benchmarks use this for sanity checks; the event-driven path is
        authoritative.
        """
        n = max(1, streams)
        rate = self.aggregate_bw / n
        if self.per_stream_bw is not None:
            rate = min(rate, self.per_stream_bw)
        return self.latency + nbytes / rate

    # -- internals -----------------------------------------------------------
    def _single_stream_rate(self) -> float:
        rate = self.aggregate_bw
        if self.per_stream_bw is not None:
            rate = min(rate, self.per_stream_bw)
        return rate

    def _settle(self) -> None:
        """Advance the virtual clock over the interval since the last
        state change.  O(1): no per-transfer bookkeeping."""
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._heap:
            return
        advanced = self.current_rate() * dt
        self._virtual += advanced
        checker = self.env.sanitizer
        if checker is not None:
            if self._shadow_synced:
                for tid in self._shadow:
                    self._shadow[tid] -= advanced
                checker.check_pipe(self)
            else:
                self._sync_shadow()
        else:
            # Checking off: the ledger no longer covers the in-flight
            # set; a later re-enable resyncs from the credits.
            if self._shadow:
                self._shadow.clear()
            self._shadow_synced = False

    def _reschedule(self) -> None:
        """Schedule a wake-up at the earliest projected completion."""
        self._wake_generation += 1
        if not self._heap:
            # Idle: reset the virtual clock so credits never accumulate
            # floating-point headroom across busy periods.
            self._virtual = 0.0
            self._shadow.clear()
            self._shadow_synced = True
            return
        generation = self._wake_generation
        rate = self.current_rate()
        min_remaining = self._heap[0][0] - self._virtual
        delay = max(0.0, min_remaining / rate)
        # Transfers whose credits sit within FP tolerance of the minimum
        # complete at this wake.  Because the generation guard ensures
        # no state change between scheduling and waking, these are
        # *exactly* done at the wake time — we complete them by fiat,
        # immune to floating-point residue that could otherwise stall
        # the clock (remaining/rate below the clock's ULP).
        threshold = self._virtual + min_remaining * (1 + 1e-12)
        timeout = self.env.timeout(delay)

        def _on_wake(_event):
            if generation != self._wake_generation:
                return  # superseded by a newer state change
            self._settle()
            floor = threshold
            settled = self._virtual + 1e-9
            if settled > floor:
                floor = settled
            heap = self._heap
            while heap and heap[0][0] <= floor:
                _, tid, event = _heappop(heap)
                self._shadow.pop(tid, None)
                event.succeed()
            self._reschedule()

        timeout.callbacks.append(_on_wake)


class StorageVolume:
    """A storage tier: bandwidth pipe + capacity ledger.

    ``read``/``write`` return completion events; ``write`` additionally
    debits capacity (raising on overflow, like a full Lustre quota).
    ``read_many``/``write_many`` coalesce a batch of chunks into one
    pipe transfer (one latency charge, one event).
    """

    def __init__(self, env: Environment, spec: StorageSpec):
        self.env = env
        self.spec = spec
        self.pipe = SharedBandwidthPipe(
            env, spec.aggregate_bw, spec.per_stream_bw, spec.latency,
            name=spec.name)
        self.used = 0.0
        self.read_bytes = 0.0
        self.write_bytes = 0.0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def free(self) -> float:
        return self.spec.capacity - self.used

    def read(self, nbytes: float) -> Event:
        """Read ``nbytes``; completion under fair sharing."""
        self.read_bytes += nbytes
        return self.pipe.transfer(nbytes)

    def read_many(self, sizes: Iterable[float]) -> Event:
        """Read a batch of chunks as one coalesced stream."""
        sizes = list(sizes)
        self.read_bytes += sum(sizes)
        return self.pipe.transfer_many(sizes)

    def write(self, nbytes: float) -> Event:
        """Write ``nbytes``, debiting capacity."""
        if nbytes > self.free:
            raise SimulationError(
                f"storage {self.name!r} full: need {nbytes}, free {self.free}")
        self.used += nbytes
        self.write_bytes += nbytes
        return self.pipe.transfer(nbytes)

    def write_many(self, sizes: Iterable[float]) -> Event:
        """Write a batch of chunks as one coalesced stream."""
        sizes = list(sizes)
        total = sum(sizes)
        if total > self.free:
            raise SimulationError(
                f"storage {self.name!r} full: need {total}, free {self.free}")
        self.used += total
        self.write_bytes += total
        return self.pipe.transfer_many(sizes)

    def delete(self, nbytes: float) -> None:
        """Return ``nbytes`` of capacity (metadata-only, instantaneous)."""
        self.used = max(0.0, self.used - nbytes)
