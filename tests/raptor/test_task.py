"""The raptor task protocol: descriptions, envelopes, futures."""

import pytest

from repro.api import (
    DescriptionError,
    RaptorConfig,
    TaskDescription,
    TaskFuture,
    TaskResult,
)
from repro.sim import Environment


def test_task_description_defaults_validate():
    desc = TaskDescription().validate()
    assert desc.cores == 1 and desc.cpu_seconds == 0.0
    assert desc.payload_bytes is None and desc.result_bytes is None


@pytest.mark.parametrize("bad", [
    dict(cores=0),
    dict(cpu_seconds=-1.0),
    dict(payload_bytes=-1.0),
    dict(result_bytes=-0.5),
])
def test_task_description_rejects_bad_values(bad):
    with pytest.raises(DescriptionError):
        TaskDescription(**bad).validate()


def test_raptor_config_validation():
    RaptorConfig().validate()
    with pytest.raises(DescriptionError):
        RaptorConfig(dispatch_overhead_seconds=-1.0).validate()
    with pytest.raises(DescriptionError):
        RaptorConfig(task_retries=-1).validate()
    with pytest.raises(DescriptionError):
        RaptorConfig(task_wire_bytes=-1.0).validate()
    with pytest.raises(DescriptionError):
        RaptorConfig(submit_latency=-0.1).validate()


def test_task_result_latency():
    envelope = TaskResult(tid=1, ok=True, result=7, submitted_at=2.0,
                          started_at=3.0, finished_at=5.5)
    assert envelope.latency == 3.5
    assert envelope.ok and envelope.result == 7


def test_task_future_lifecycle():
    env = Environment()
    future = TaskFuture(env, tid=3, description=TaskDescription())
    assert not future.wait().triggered
    with pytest.raises(RuntimeError, match="in flight"):
        future.result()
    envelope = TaskResult(tid=3, ok=True, result="x", finished_at=1.0)
    future._resolve(envelope)
    assert future.wait().triggered
    assert future.result() is envelope
    # double-resolve is a no-op: the first envelope wins
    future._resolve(TaskResult(tid=3, ok=False, error="late"))
    assert future.result() is envelope


def test_unit_description_service_is_exclusive_with_function():
    from repro.api import ComputeUnitDescription

    def service(ctx):
        yield None

    ComputeUnitDescription(service=service).validate()
    with pytest.raises(DescriptionError, match="service or a function"):
        ComputeUnitDescription(service=service,
                               function=lambda: 1).validate()


def test_task_description_from_dict_rejects_unknown_fields():
    with pytest.raises(DescriptionError, match="unknown"):
        TaskDescription.from_dict({"executable": "/bin/true"})
