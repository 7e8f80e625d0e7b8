"""Tests for the ``python -m repro`` command-line interface."""

import errno
import os
from pathlib import Path

import pytest

from repro.__main__ import main


def test_figure5_cli(capsys):
    assert main(["figure5"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5 (main)" in out
    assert "RP-YARN (Mode I)" in out
    assert "Compute-Unit startup" in out
    # report and gate agree: exit 0 means no row printed a FAIL, and the
    # two cells that sit outside the bare paper band show their tolerance
    assert "FAIL" not in out and "off" not in out
    assert "overhead 46s, paper 50-85 ±10: OK" in out
    assert "9.2 | paper 1-8 ±2: OK" in " ".join(out.split())


def test_figure5_cli_renders_the_pinned_sweep(capsys, monkeypatch):
    """The verb is its grid's sweep at root seed 42, then the report
    over that run's rows: the printed numbers are the pinned digest's."""
    from repro.experiments import sweeps
    from repro.experiments.tables import figure5_report
    from tests.analysis.test_determinism_oracle import PINNED

    runs, run_sweep = [], sweeps.run_sweep
    monkeypatch.setattr(sweeps, "run_sweep", lambda *args, **kwargs:
                        runs.append(run_sweep(*args, **kwargs)) or runs[-1])
    assert main(["figure5"]) == 0
    [run] = runs
    assert run.digest() == PINNED["figure5"]
    rows = [row for result in run.results for row in result["rows"]]
    assert capsys.readouterr().out == figure5_report(rows)[0] + "\n\n"


def test_figure6_quick_cli(capsys):
    assert main(["figure6", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6" in out
    assert "mean RP-YARN advantage" in out
    assert out.count("OK") >= 16  # every quick-grid cell validated
    # the paper gate: every shape the quick grid has cells for holds, and
    # the two 16-task claims are listed as unevaluated, not as passed
    assert "FAIL" not in out
    assert out.count("not in grid") == 2


def test_figure6_full_cli(capsys):
    """The whole paper gate: all 36 cells, all 11 shapes evaluated."""
    assert main(["figure6"]) == 0
    out = capsys.readouterr().out
    assert "all 36 cells of the grid ran" in out
    assert "FAIL" not in out and out.count("not in grid") == 0
    shapes = out.split("Paper shapes (§IV-B)")[1]
    assert shapes.count("OK |") == 11        # every figure6_checks entry


def test_ablations_cli(capsys):
    assert main(["ablations"]) == 0
    out = capsys.readouterr().out
    assert "A1" in out and "A2" in out and "A3" in out
    assert "A3 on K-Means" in out and "FAIL" not in out


def test_sensitivity_cli(capsys):
    assert main(["sensitivity"]) == 0
    out = capsys.readouterr().out
    assert "crossover (~100 MB/s)" in out and "FAIL" not in out


def test_unknown_experiment_rejected():
    # main() is also the console-script entry point: usage errors come
    # back as exit code 2 rather than an escaping SystemExit.
    assert main(["figure7"]) == 2


def test_no_command_rejected():
    assert main([]) == 2


def test_bad_trace_flavor_rejected():
    assert main(["trace", "--flavor", "MPI"]) == 2


def test_bad_trace_values_rejected(capsys):
    assert main(["trace", "--points", "2", "--clusters", "8"]) == 2
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_sweep_list_prints_registered_grids(capsys, tmp_path):
    from repro.experiments.sweeps import GRIDS
    assert main(["sweep", "--list",
                 "--output", str(tmp_path / "ignored.json")]) == 0
    out = capsys.readouterr().out
    assert "registered sweep grids:" in out
    for name in GRIDS:
        assert name in out, f"sweep --list omits grid {name!r}"
    assert "cells" in out


def test_bare_sweep_lists_grids_and_usage(capsys):
    assert main(["sweep"]) == 0
    out = capsys.readouterr().out
    assert "registered sweep grids:" in out
    assert "usage: python -m repro sweep GRID" in out


def test_help_and_docstring_list_every_grid(capsys):
    """The CLI help and module docstring never drift from the grid
    registry (a previous release shipped help text missing ``chaos``)."""
    import repro.__main__ as cli
    from repro.experiments.sweeps import GRIDS
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in GRIDS:
        assert name in out, f"--help omits sweep grid {name!r}"
        assert name in cli.__doc__, \
            f"module docstring omits sweep grid {name!r}"


def test_raptor_sweep_quick_cli(capsys):
    assert main(["sweep", "raptor", "--quick", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "sweep raptor:" in out
    assert "per-unit YARN" in out          # the headline speedup lines
    assert "equivalence" in out and "identical" in out


# ---------------------------------------------------------------------------
# Persistence verbs, resumable sweeps, and the declarative registry
# ---------------------------------------------------------------------------


def test_registry_sanity():
    """Every verb is declared once, carries help text, and documents a
    success exit code."""
    from repro.cli import COMMANDS, REGISTRY
    names = [cmd.name for cmd in COMMANDS]
    assert len(names) == len(set(names))
    for cmd in COMMANDS:
        assert REGISTRY[cmd.name] is cmd
        assert cmd.help
        assert any(code == 0 for code, _ in cmd.exit_codes)


def test_subcommand_help_documents_exit_codes(capsys):
    assert main(["checkpoint", "--help"]) == 0
    out = capsys.readouterr().out
    assert "exit codes" in out


def test_checkpoint_list_scenarios(capsys):
    assert main(["checkpoint", "--list"]) == 0
    out = capsys.readouterr().out
    assert "bag" in out and "raptor-stream" in out


def test_checkpoint_restore_cli_round_trip(tmp_path, capsys):
    store = str(tmp_path / "ckpt")
    assert main(["checkpoint", "bag", "--store", store, "--at", "80",
                 "--seed", "9", "--param", "ntasks=4",
                 "--param", "fault_rate=0.5"]) == 0
    out = capsys.readouterr().out
    assert "checkpointed scenario 'bag'" in out
    assert main(["restore", store, "--until", "120"]) == 0
    out = capsys.readouterr().out
    assert "state digest verified" in out
    assert "ran to t=" in out


def test_p1_transcript_pinned(tmp_path, capsys):
    """The EXPERIMENTS P1 transcript, value for value: a change that
    moves a barrier or a digest must update the documented run too."""
    store = str(tmp_path / "ckpt")
    assert main(["checkpoint", "bag", "--store", store, "--at", "120",
                 "--param", "ntasks=8", "--param", "fault_rate=0.25"]) == 0
    out = capsys.readouterr().out
    assert "checkpointed scenario 'bag' at t=120.000 (step 249)" in out
    assert "  state: 7fd12ddfe479" in out
    assert main(["restore", store, "--until", "200"]) == 0
    out = capsys.readouterr().out
    assert "at t=120.000 (step 249); state digest verified" in out
    assert ("ran to t=200.000 (step 447), state digest 6d6931961be82908"
            in out)


@pytest.mark.parametrize("call,code", [
    ("fsync", errno.ENOSPC), ("replace", errno.EACCES)])
def test_checkpoint_disk_error_exits_1(tmp_path, capsys, monkeypatch,
                                       call, code):
    def fail(*args, **kwargs):
        raise OSError(code, os.strerror(code))

    monkeypatch.setattr(os, call, fail)
    store = tmp_path / "ckpt"
    assert main(["checkpoint", "bag", "--store", str(store),
                 "--param", "ntasks=4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {store}")
    assert f"[Errno {code}]" in err
    assert [p for p in store.rglob("*") if ".tmp." in p.name] == []


def test_sweep_disk_error_exits_1(tmp_path, capsys, monkeypatch):
    def fail(fd):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "fsync", fail)
    run_dir = tmp_path / "run"
    assert main(["sweep", "chaos", "--quick", "--run-dir",
                 str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {run_dir / 'spec.json'}")


def test_restore_disk_error_exits_1(tmp_path, capsys, monkeypatch):
    store = str(tmp_path / "ckpt")
    assert main(["checkpoint", "bag", "--store", store,
                 "--param", "ntasks=4"]) == 0

    def fail(self, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                              str(self))

    monkeypatch.setattr(Path, "read_text", fail)
    assert main(["restore", store]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [Errno {errno.EACCES}]")
    assert store in err


def test_checkpoint_usage_errors(tmp_path):
    store = str(tmp_path / "ckpt")
    assert main(["checkpoint", "no-such-scenario", "--store", store]) == 2
    assert main(["checkpoint", "bag", "--store", store,
                 "--param", "missing-equals"]) == 2


def test_restore_missing_store_fails_cleanly(tmp_path, capsys):
    assert main(["restore", str(tmp_path / "nowhere")]) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_run_dir_resume_cli(tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    base = ["sweep", "chaos", "--quick", "--jobs", "1",
            "--run-dir", run_dir]
    assert main(base + ["--max-cells", "2"]) == 0
    out = capsys.readouterr().out
    assert "INCOMPLETE" in out
    # same run dir without --resume is refused, not silently re-run
    assert main(base) == 1
    assert "--resume" in capsys.readouterr().err
    assert main(base + ["--resume"]) == 0
    out = capsys.readouterr().out
    assert "2 resumed" in out
    assert "INCOMPLETE" not in out
