"""Weighted deficit round-robin: shares, starvation-freedom."""

from collections import deque

import pytest

from repro.service import WeightedDeficitRoundRobin


def make_queues(**backlogs):
    return {tenant: deque(range(n)) for tenant, n in backlogs.items()}


def test_validation():
    with pytest.raises(ValueError, match="quantum"):
        WeightedDeficitRoundRobin(quantum=0)
    drr = WeightedDeficitRoundRobin()
    with pytest.raises(ValueError, match="weight"):
        drr.register("a", weight=0)


def test_register_is_idempotent_and_updates_weight():
    drr = WeightedDeficitRoundRobin()
    drr.register("a", weight=1.0)
    drr.register("a", weight=3.0)
    assert list(drr._weights) == ["a"]
    assert drr._weights["a"] == 3.0


def test_weighted_shares_converge_to_weights():
    drr = WeightedDeficitRoundRobin(quantum=1.0)
    drr.register("heavy", weight=3.0)
    drr.register("light", weight=1.0)
    queues = make_queues(heavy=400, light=400)
    got = {"heavy": 0, "light": 0}
    for _ in range(10):
        for tenant, _item in drr.drain(queues, budget=40):
            got[tenant] += 1
    assert got["heavy"] + got["light"] == 400
    # 3:1 weights -> ~300/100 split while both stay backlogged
    assert got["heavy"] == pytest.approx(300, abs=10)
    assert got["light"] == pytest.approx(100, abs=10)


def test_starvation_freedom_under_saturating_tenant():
    """A tenant with a huge backlog cannot shut out a light tenant:
    every drain pass with both backlogged serves the light tenant at
    least floor(quantum * weight) items."""
    drr = WeightedDeficitRoundRobin(quantum=2.0)
    drr.register("hog", weight=10.0)
    drr.register("small", weight=1.0)
    queues = make_queues(hog=100_000, small=50)
    served_small = 0
    rounds = 0
    while queues["small"] and rounds < 100:
        batch = drr.drain(queues, budget=64)
        per_tenant = {t: 0 for t in ("hog", "small")}
        for tenant, _item in batch:
            per_tenant[tenant] += 1
        if queues["small"]:
            # still backlogged -> must have been served this round
            assert per_tenant["small"] >= 1
        served_small += per_tenant["small"]
        rounds += 1
    assert served_small == 50
    assert rounds < 100  # the light tenant finished, i.e. no starvation


def test_work_conserving_when_one_queue_is_empty():
    drr = WeightedDeficitRoundRobin(quantum=1.0)
    drr.register("a", weight=1.0)
    drr.register("b", weight=1.0)
    queues = make_queues(a=10, b=0)
    batch = drr.drain(queues, budget=8)
    # b has nothing; the whole budget goes to a instead of idling
    assert len(batch) == 8
    assert all(tenant == "a" for tenant, _ in batch)


def test_idle_tenant_does_not_bank_credit():
    drr = WeightedDeficitRoundRobin(quantum=1.0)
    drr.register("a", weight=1.0)
    drr.register("b", weight=1.0)
    queues = make_queues(a=1000, b=0)
    for _ in range(10):
        drr.drain(queues, budget=10)
    assert queues["a"]  # a is still backlogged when b arrives
    # b arrives late; its deficit was reset while idle, so it gets its
    # fair share from now on, not a 10-round burst
    queues["b"] = deque(range(100))
    batch = drr.drain(queues, budget=10)
    served_b = sum(1 for tenant, _ in batch if tenant == "b")
    assert served_b <= 6


def test_empty_inputs():
    drr = WeightedDeficitRoundRobin()
    assert drr.drain({}, budget=10) == []
    drr.register("a")
    assert drr.drain(make_queues(a=5), budget=0) == []
    assert drr.drain(make_queues(a=0), budget=10) == []


def test_drain_is_deterministic():
    def run():
        drr = WeightedDeficitRoundRobin(quantum=1.5)
        drr.register("x", weight=2.0)
        drr.register("y", weight=1.0)
        queues = make_queues(x=37, y=23)
        out = []
        while queues["x"] or queues["y"]:
            out.extend(drr.drain(queues, budget=7))
        return out

    assert run() == run()
