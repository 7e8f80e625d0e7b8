"""FaultSpec / RestartPolicy validation and the backoff schedule."""

import pytest

from repro.api import DescriptionError, FaultSpec, RestartPolicy


# ----------------------------------------------------------------- FaultSpec
def test_valid_specs_chain():
    spec = FaultSpec(kind="node_crash", at=10.0, target="n0")
    assert spec.validate() is spec


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(kind="meteor", target="n0"), "unknown fault kind"),
    (dict(kind="node_crash", target="n0", at=-1.0), "non-negative"),
    (dict(kind="node_crash", target=""), "needs a target"),
    (dict(kind="unit_error", target=""), "needs a target"),
    (dict(kind="unit_error", target="u0", times=0), "times >= 1"),
    (dict(kind="node_crash", target="n0", duration=0.0),
     "duration must be positive"),
    (dict(kind="network_degrade", factor=0.0), "factor"),
    (dict(kind="network_degrade", factor=1.5), "factor"),
    (dict(kind="straggler", target="n0", factor=0.5), "factor"),
    (dict(kind="network_partition", target="a,b"), "duration"),
    (dict(kind="network_partition", target="", duration=5.0), "target"),
])
def test_invalid_specs_raise(kwargs, fragment):
    with pytest.raises(DescriptionError, match=fragment):
        FaultSpec(**kwargs).validate()


def test_fault_spec_is_a_description():
    spec = FaultSpec(kind="straggler", at=5.0, target="n1", factor=2.0)
    assert spec.validate().factor == 2.0
    clone = spec.replace(factor=4.0)
    assert (clone.factor, spec.factor) == (4.0, 2.0)
    with pytest.raises(DescriptionError):
        spec.replace(factor=0.5)


def test_partition_group_parses_target():
    spec = FaultSpec(kind="network_partition", at=1.0,
                     target="n1, n2,n3", duration=10.0).validate()
    assert spec.partition_group() == frozenset({"n1", "n2", "n3"})


def test_label_defaults_to_kind_and_time():
    assert FaultSpec(kind="node_crash", at=12.5,
                     target="n0").label == "node_crash@12.5"
    assert FaultSpec(kind="node_crash", at=1.0, target="n0",
                     name="blackout").label == "blackout"


# -------------------------------------------------------------- RestartPolicy
def test_backoff_schedule_is_exact_capped_exponential():
    policy = RestartPolicy(max_restarts=6, backoff=1.5,
                           backoff_factor=2.0, backoff_cap=10.0)
    policy.validate()
    assert [policy.delay(n) for n in range(1, 6)] == [
        1.5, 3.0, 6.0, 10.0, 10.0]


def test_restart_policy_rejects_bad_fields():
    with pytest.raises(DescriptionError):
        RestartPolicy(max_restarts=-1).validate()
    with pytest.raises(DescriptionError):
        RestartPolicy(backoff_factor=0.5).validate()
    with pytest.raises(DescriptionError):
        RestartPolicy(backoff=5.0, backoff_cap=1.0).validate()
    with pytest.raises(DescriptionError):
        RestartPolicy().delay(0)
