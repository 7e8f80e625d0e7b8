"""Streaming between HPC and Hadoop stages (paper §V discussion).

"Utilizing hybrid environments is associated with some overhead, most
importantly data needs to be moved, which involves persisting files
and re-reading them into Spark or another Hadoop execution framework.
In the future it can be expected that data can be directly streamed
between these two environments; currently such capabilities typically
do not exist."

This module builds that future capability and the baseline it
replaces, so the overhead the paper describes can be measured:

* :class:`StreamChannel` — a bounded in-memory pipe between a producer
  stage (e.g. an HPC simulation Compute-Unit) and a consumer stage
  (e.g. a Spark analysis job).  Transfers pay interconnect time per
  chunk and block on back-pressure, and consumers start as soon as the
  first chunk lands.
* :func:`persist_handoff` — the status-quo: the producer writes
  everything to the shared filesystem, the consumer re-reads it; the
  consumer cannot start before the producer finished.

Both move *real* Python records, so downstream results are checkable.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.sim.engine import Environment, SimulationError
from repro.sim.resources import Store

#: Sentinel closing a stream.
_EOS = object()


class StreamChannel:
    """A bounded, timed producer->consumer pipe.

    ``put(records, nbytes)`` charges the fabric (or a fixed bandwidth)
    for the chunk and blocks when ``capacity_chunks`` are unconsumed
    (back-pressure); ``get()`` returns chunks in order and ``None`` at
    end-of-stream after ``close()``.
    """

    def __init__(self, env: Environment, bandwidth: float = 1e9,
                 capacity_chunks: int = 8,
                 network=None, src: str = "", dst: str = ""):
        if bandwidth <= 0:
            raise SimulationError("bandwidth must be positive")
        if capacity_chunks < 1:
            raise SimulationError("capacity must be >= 1")
        self.env = env
        self.bandwidth = bandwidth
        self.network = network
        self.src, self.dst = src, dst
        self._store = Store(env, capacity=capacity_chunks)
        self._closed = False
        self.chunks_streamed = 0
        self.bytes_streamed = 0.0

    def put(self, records: Any, nbytes: float):
        """Send one chunk.  Generator (blocks on back-pressure)."""
        if self._closed:
            raise SimulationError("stream already closed")
        if nbytes > 0:
            if self.network is not None and self.src != self.dst:
                yield self.network.send(self.src, self.dst, nbytes)
            else:
                yield self.env.timeout(nbytes / self.bandwidth)
        yield self._store.put(records)
        self.chunks_streamed += 1
        self.bytes_streamed += nbytes

    def close(self):
        """Signal end-of-stream.  Generator."""
        self._closed = True
        yield self._store.put(_EOS)

    def get(self):
        """Receive the next chunk (None = end).  Generator."""
        item = yield self._store.get()
        if item is _EOS:
            return None
        return item


def stream_pipeline(env: Environment, channel: StreamChannel,
                    produce_chunks, consume_chunk: Callable[[Any], Any]):
    """Drive a producer generator and a streaming consumer concurrently.

    ``produce_chunks`` is an iterable of ``(records, nbytes)``; each is
    pushed through the channel (paying stream time) while the consumer
    applies ``consume_chunk`` to chunks as they arrive.  Generator
    returning the list of per-chunk consumer results.
    """

    def producer():
        for records, nbytes in produce_chunks:
            yield from channel.put(records, nbytes)
        yield from channel.close()

    results: List[Any] = []

    def consumer():
        while True:
            chunk = yield from channel.get()
            if chunk is None:
                return
            results.append(consume_chunk(chunk))

    p = env.process(producer())
    c = env.process(consumer())
    yield env.all_of([p, c])
    return results


def persist_handoff(env: Environment, shared_fs, produce_chunks,
                    consume_chunk: Callable[[Any], Any]):
    """The status-quo baseline: persist everything, then re-read.

    The producer writes every chunk to the shared filesystem; only
    after the last write does the consumer re-read the whole dataset
    and process it.  Generator returning per-chunk results.
    """
    persisted: List[Any] = []
    total_bytes = 0.0
    for records, nbytes in produce_chunks:
        if nbytes > 0:
            yield shared_fs.write(nbytes)
        persisted.append(records)
        total_bytes += nbytes
    # consumer re-reads the full dataset before any processing
    if total_bytes > 0:
        yield shared_fs.read(total_bytes)
    shared_fs.delete(total_bytes)
    return [consume_chunk(chunk) for chunk in persisted]
