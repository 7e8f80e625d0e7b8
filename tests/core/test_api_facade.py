"""The repro.api facade and the deprecation gate over src/repro."""

import importlib
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
import repro.api
import repro.core
from repro.api import PilotManager, Session, UnitManager
from repro.faults.plan import FaultPlan


def test_api_surface_is_complete():
    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None, name
    # the headline objects are the canonical ones, not copies
    from repro.core.session import Session as home_session
    assert repro.api.Session is home_session


def test_session_facade_hands_out_singletons(stack):
    env, registry, session, pmgr, umgr = stack
    assert session.pilot_manager() is session.pilot_manager()
    assert session.unit_manager() is session.unit_manager()
    assert isinstance(session.pilot_manager(), PilotManager)
    assert isinstance(session.unit_manager(), UnitManager)


def test_session_facade_kwargs_build_fresh_managers(stack):
    env, registry, session, pmgr, umgr = stack
    from repro.api import RestartPolicy
    singleton = session.unit_manager()
    custom = session.unit_manager(restart_policy=RestartPolicy())
    assert custom is not singleton
    assert custom.restart_policy is not None
    assert session.unit_manager() is singleton
    assert session.unit_manager(
        restart_policy=RestartPolicy()) is not custom
    fresh_pmgr = session.pilot_manager(heartbeat_timeout=10.0)
    assert fresh_pmgr is not session.pilot_manager()


def test_session_faults_installs_injector(stack):
    env, registry, session, pmgr, umgr = stack
    assert env.faults is None
    plan = session.faults
    assert isinstance(plan, FaultPlan)
    assert session.faults is plan            # cached
    assert env.faults is plan.injector       # installed on the env


def test_session_telemetry_installs_hub(stack):
    env, registry, session, pmgr, umgr = stack
    tel = session.telemetry
    assert env.telemetry is tel
    assert session.telemetry is tel


def test_core_submodule_imports_stay_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        core_session = importlib.import_module("repro.core.session")
        assert core_session.Session is Session


def test_core_unknown_attribute_raises():
    """No package-level class aliases: stock module/import errors."""
    for name in ("Session", "Nonsense"):
        with pytest.raises(AttributeError, match=name):
            getattr(repro.core, name)
    with pytest.raises(ImportError, match="State"):
        from repro.core.states import State  # noqa: F401


def test_no_deprecated_core_imports_left_in_src():
    """The deprecation gate: no file under src/repro mentions
    ``DeprecationWarning``, and every ``repro.*`` module imports clean
    with that warning promoted to an error (in a fresh interpreter —
    this process already has the tree imported)."""
    pkg = Path(repro.__file__).resolve().parent
    offenders = [str(path.relative_to(pkg))
                 for path in sorted(pkg.rglob("*.py"))
                 if "DeprecationWarning" in path.read_text()]
    assert not offenders, offenders
    script = (
        "import importlib, pkgutil, sys\n"
        f"sys.path.insert(0, {str(pkg.parent)!r})\n"
        "import repro\n"
        "for mod in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(mod.name)\n")
    done = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", script],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
