"""InvariantViolation must never be swallowed by broad handlers.

The sanitizer reports simulator bugs by raising
:class:`~repro.analysis.sanitizer.InvariantViolation`.  Three layers
run payload code under a broad ``except Exception`` that converts
payload bugs into recorded failures (FAILED unit, failed TaskResult,
FAILED job) — exactly the conversion that must *not* happen to a
sanitizer finding, or the violation is buried in a failure record
nobody reads.  One regression test per swallowing site.
"""

import pytest

from repro.analysis.sanitizer import InvariantViolation
from repro.api import ComputeUnitDescription, TaskDescription
from repro.cluster import Machine, stampede
from repro.rms import JobDescription, SlurmScheduler
from repro.sim import Environment
from tests.conftest import FAST_RMS
from tests.core.test_units import active_pilot
from tests.raptor.test_overlay import overlay_on


def _violate():
    raise InvariantViolation("sanitizer: clock went backwards")


def test_agent_reraises_invariant_violation(stack):
    """agent._execute_unit: sanitizer findings crash, not FAILED units."""
    env, registry, session, pmgr, umgr = stack
    active_pilot(env, pmgr, umgr)
    units = umgr.submit_units(ComputeUnitDescription(
        cores=1, function=_violate))
    with pytest.raises(InvariantViolation, match="clock went backwards"):
        env.run(umgr.wait_units(units))


def test_agent_still_records_payload_bugs(stack):
    """Ordinary payload exceptions keep the FAILED-unit contract."""
    env, registry, session, pmgr, umgr = stack
    active_pilot(env, pmgr, umgr)

    def boom():
        raise ValueError("payload bug")

    units = umgr.submit_units(ComputeUnitDescription(
        cores=1, function=boom))
    env.run(umgr.wait_units(units))
    assert "payload bug" in units[0].stderr


def test_raptor_master_reraises_invariant_violation(stack):
    """master._dispatch: sanitizer findings crash, not failed results."""
    env, session, overlay = overlay_on(stack, workers=2)
    futures = overlay.submit_tasks([TaskDescription(function=_violate)])
    with pytest.raises(InvariantViolation, match="clock went backwards"):
        env.run(overlay.wait(futures))


def test_rms_reraises_invariant_violation():
    """rms._run_job: sanitizer findings crash, not FAILED jobs."""
    env = Environment()
    machine = Machine(env, stampede(num_nodes=2))
    rms = SlurmScheduler(env, machine, FAST_RMS)

    def payload(env_, job_):
        yield env_.timeout(1.0)
        raise InvariantViolation("sanitizer: negative queue depth")

    job = rms.submit(JobDescription(num_nodes=1, walltime=100,
                                    payload=payload))
    with pytest.raises(InvariantViolation, match="negative queue depth"):
        env.run(job.finished)
