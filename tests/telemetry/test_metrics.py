"""Metrics registry: counters, gauges, time-bucketed histograms."""

import json

import pytest

from repro.sim import Environment
from repro.telemetry.metrics import MetricsRegistry


@pytest.fixture()
def env():
    return Environment()


@pytest.fixture()
def registry(env):
    return MetricsRegistry(env)


def _at(env, t, fn):
    """Run ``fn`` at simulated time ``t``."""
    def proc():
        yield env.timeout(t - env.now)
        fn()
    env.process(proc())
    env.run()


def test_counter_monotonic(registry, env):
    c = registry.counter("hdfs.bytes_written")
    c.inc(100)
    _at(env, 5.0, lambda: c.inc(50))
    assert c.total == 150
    assert c.samples == [(0.0, 100), (5.0, 50)]
    with pytest.raises(ValueError):
        c.inc(-1)
    rows = list(c.rows())
    assert rows[-1]["total"] == 150 and rows[-1]["t"] == 5.0


def test_gauge_same_instant_overwrite_and_time_weighted_mean(registry, env):
    g = registry.gauge("queue_depth")
    g.set(3)
    g.set(5)                      # same instant: one sample survives
    assert g.samples == [(0.0, 5.0)]
    _at(env, 10.0, lambda: g.set(1))
    _at(env, 20.0, lambda: g.set(0))
    # 5 for 10s, 1 for 10s, 0 after: mean over [0, 20] = 3.0
    assert g.time_weighted_mean(until=20.0) == pytest.approx(3.0)
    assert g.max() == 5.0
    assert g.value == 0.0


def test_histogram_value_bucketing(registry):
    h = registry.histogram("latency", bounds=(1.0, 5.0, 10.0))
    for v in (0.2, 0.9, 1.0, 4.0, 7.5, 100.0):
        h.observe(v)
    # bisect_left: bound values land in their own bucket (le semantics).
    assert h.bucket_counts() == [3, 1, 1, 1]
    assert h.count == 6
    assert h.mean == pytest.approx(sum((0.2, 0.9, 1.0, 4.0, 7.5, 100.0)) / 6)
    assert h.min == 0.2 and h.max == 100.0
    assert h.quantile(0.5) == 1.0
    assert h.quantile(1.0) == 100.0


def test_histogram_percentiles(registry):
    h = registry.histogram("latency", bounds=(1.0, 5.0, 10.0))
    assert h.quantile(0.5) is None          # empty histogram
    assert h.percentiles((50, 95)) == {50: None, 95: None}
    for v in (0.5,) * 90 + (7.0,) * 9 + (100.0,):
        h.observe(v)
    pcts = h.percentiles((50, 95, 99, 100))
    # bucket-upper-bound semantics: the reported value is the smallest
    # bound covering the requested rank
    assert pcts[50] == 1.0
    assert pcts[95] == 10.0
    assert pcts[99] == 10.0                 # 99th sample is 7.0 -> <= 10
    assert pcts[100] == 100.0               # overflow bucket -> max
    assert h.percentiles([50]) == {50: 1.0}


def test_histogram_quantile_edge_cases(registry):
    h = registry.histogram("latency", bounds=(1.0, 5.0, 10.0))
    # Empty histogram: every quantile is None, including the extremes.
    assert h.quantile(0.0) is None
    assert h.quantile(1.0) is None
    # Out-of-range q is a usage error, not a silent clamp.
    with pytest.raises(ValueError):
        h.quantile(-0.01)
    with pytest.raises(ValueError):
        h.quantile(1.01)
    # q=0 reports the first *populated* bucket's bound: samples in the
    # 5.0 bucket must not surface the empty 1.0 bucket's bound.
    h.observe(3.0)
    assert h.quantile(0.0) == 5.0
    assert h.quantile(1.0) == 5.0


def test_histogram_single_bucket_and_overflow(registry):
    h = registry.histogram("latency", bounds=(2.0,))
    for v in (0.5, 1.0, 2.0):
        h.observe(v)
    assert h.quantile(0.0) == 2.0
    assert h.quantile(0.5) == 2.0
    assert h.quantile(1.0) == 2.0
    # Overflow samples land past the last bound: the answer is max.
    h.observe(9.0)
    assert h.quantile(1.0) == 9.0
    assert h.percentiles((0, 100)) == {0: 2.0, 100: 9.0}


def test_harness_percentile_helpers(env):
    """``Histogram.percentiles`` is what result rows (``run_load``'s
    ``submit_p50`` ...) are built from: one entry per asked percentile,
    ``None`` while empty, bucket upper bounds once observed."""
    registry = MetricsRegistry(env)
    h = registry.histogram("lat", bounds=(1.0, 10.0))
    assert h.percentiles((50, 95, 99)) == {50: None, 95: None, 99: None}
    for v in (0.5, 0.6, 20.0):
        h.observe(v)
    out = h.percentiles((50, 95, 99))
    assert out[50] == 1.0 and out[99] == 20.0


def test_histogram_time_windows(registry, env):
    h = registry.histogram("latency", bounds=(1.0,), window_seconds=60.0)
    h.observe(0.5)                               # window 0
    _at(env, 61.0, lambda: h.observe(2.0))       # window 1
    _at(env, 119.0, lambda: h.observe(0.1))      # window 1
    assert sorted(h.windows) == [0, 1]
    assert h.windows[0] == [1, 0]
    assert h.windows[1] == [1, 1]
    rows = list(h.rows())
    assert rows[0]["t0"] == 0.0 and rows[0]["t1"] == 60.0
    assert rows[1]["t0"] == 60.0 and rows[1]["sum"] == pytest.approx(2.1)


def test_registry_keying_and_kind_mismatch(registry):
    a = registry.counter("x", backend="fork")
    b = registry.counter("x", backend="yarn")
    assert a is not b
    assert registry.counter("x", backend="fork") is a
    assert len(registry.find("x")) == 2
    with pytest.raises(TypeError):
        registry.gauge("x", backend="fork")


def test_jsonl_export(registry):
    registry.counter("c").inc(2)
    registry.gauge("g").set(7)
    registry.histogram("h", bounds=(1.0,)).observe(0.5)
    rows = [json.loads(line) for line in registry.to_jsonl().splitlines()]
    kinds = {r["metric"]: r["type"] for r in rows}
    assert kinds == {"c": "counter", "g": "gauge", "h": "histogram"}


def test_histogram_validation(registry):
    with pytest.raises(ValueError):
        registry.histogram("bad", bounds=())
    with pytest.raises(ValueError):
        registry.histogram("bad2", window_seconds=0)
    with pytest.raises(ValueError):
        registry.histogram("ok", bounds=(1.0,)).quantile(1.5)


def test_counter_sample_resolution_batches_increments(env):
    registry = MetricsRegistry(env, sample_resolution=1.0)
    c = registry.counter("batched")
    _at(env, 0.1, lambda: c.inc(1))
    _at(env, 0.5, lambda: c.inc(2))   # merges into the 0.1 sample
    _at(env, 2.0, lambda: c.inc(4))   # new window
    assert c.total == 7
    assert c.samples == [(0.1, 3.0), (2.0, 4.0)]
    rows = list(c.rows())
    assert rows[-1]["total"] == 7


def test_gauge_sample_resolution_coalesces(env):
    registry = MetricsRegistry(env, sample_resolution=1.0)
    g = registry.gauge("batched")
    _at(env, 0.1, lambda: g.set(5))
    _at(env, 0.6, lambda: g.set(9))   # same window: last write wins
    _at(env, 3.0, lambda: g.set(2))
    assert g.samples == [(0.6, 9.0), (3.0, 2.0)]
    assert g.value == 2.0


def test_sample_resolution_none_keeps_every_sample(env):
    registry = MetricsRegistry(env)
    c = registry.counter("exact")
    _at(env, 0.1, lambda: c.inc(1))
    _at(env, 0.2, lambda: c.inc(1))
    assert len(c.samples) == 2


def test_sample_resolution_validation(env):
    with pytest.raises(ValueError):
        MetricsRegistry(env, sample_resolution=0)
