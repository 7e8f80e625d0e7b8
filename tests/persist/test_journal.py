"""The crash-safe sweep journal: durability, torn tails, spec identity."""

import errno
import json
import os

import pytest

from repro.persist import JournalError, PersistError, SweepJournal


SPEC = {"grid": "demo", "root_seed": 42, "quick": False,
        "cells": [{"key": "a", "seed": 1}, {"key": "b", "seed": 2}]}


def test_spec_round_trip_and_identity_lock(tmp_path):
    journal = SweepJournal(tmp_path / "run")
    journal.write_spec(dict(SPEC))
    spec = journal.read_spec()
    assert spec["grid"] == "demo"
    # identical re-write is a no-op...
    journal.write_spec(dict(SPEC))
    # ...but a different sweep is rejected
    with pytest.raises(JournalError, match="different sweep"):
        journal.write_spec({**SPEC, "root_seed": 7})


def test_record_and_recover(tmp_path):
    with SweepJournal(tmp_path / "run") as journal:
        journal.record("a", {"rows": [1]})
        journal.record("b", {"rows": [2]})
    recovered = SweepJournal(tmp_path / "run").completed()
    assert recovered == {"a": {"rows": [1]}, "b": {"rows": [2]}}


def test_pending_preserves_declaration_order(tmp_path):
    with SweepJournal(tmp_path / "run") as journal:
        journal.record("b", {"rows": [2]})
    assert SweepJournal(tmp_path / "run").pending(
        ["a", "b", "c"]) == ["a", "c"]


def test_torn_tail_is_dropped(tmp_path):
    """The one corruption a SIGKILL can cause — a half-appended final
    line — recovers to the last durable record."""
    with SweepJournal(tmp_path / "run") as journal:
        journal.record("a", {"rows": [1]})
        journal.record("b", {"rows": [2]})
    cells = tmp_path / "run" / "cells.jsonl"
    text = cells.read_text()
    cells.write_text(text + text.splitlines()[0][: len(text) // 4])
    recovered = SweepJournal(tmp_path / "run").completed()
    assert set(recovered) == {"a", "b"}


def test_append_after_torn_tail_repairs_file(tmp_path):
    """Appending after a crash must truncate the torn fragment on disk
    first — otherwise the new record merges onto it, becoming mid-file
    corruption that makes every later recovery raise."""
    with SweepJournal(tmp_path / "run") as journal:
        journal.record("a", {"rows": [1]})
        journal.record("b", {"rows": [2]})
    cells = tmp_path / "run" / "cells.jsonl"
    text = cells.read_text()
    cells.write_text(text + text.splitlines()[0][: len(text) // 4])
    with SweepJournal(tmp_path / "run") as journal:
        journal.record("c", {"rows": [3]})
        journal.record("d", {"rows": [4]})
    assert SweepJournal(tmp_path / "run").completed() == {
        "a": {"rows": [1]}, "b": {"rows": [2]},
        "c": {"rows": [3]}, "d": {"rows": [4]}}


def test_append_after_unterminated_valid_tail(tmp_path):
    """A crash can flush a full final line but not its newline; the
    next append must neither merge onto that line nor drop it."""
    with SweepJournal(tmp_path / "run") as journal:
        journal.record("a", {"rows": [1]})
    cells = tmp_path / "run" / "cells.jsonl"
    cells.write_bytes(cells.read_bytes().rstrip(b"\n"))
    with SweepJournal(tmp_path / "run") as journal:
        journal.record("b", {"rows": [2]})
    assert SweepJournal(tmp_path / "run").completed() == {
        "a": {"rows": [1]}, "b": {"rows": [2]}}


def test_append_rejects_mid_file_corruption(tmp_path):
    """Repair only ever trims the tail; corruption anywhere else stops
    the append instead of being buried under new records."""
    with SweepJournal(tmp_path / "run") as journal:
        journal.record("a", {"rows": [1]})
        journal.record("b", {"rows": [2]})
    cells = tmp_path / "run" / "cells.jsonl"
    lines = cells.read_text().splitlines()
    lines[0] = lines[0][:-5] + 'oops"'
    cells.write_text("\n".join(lines) + "\n")
    with pytest.raises(JournalError, match="not a crash artifact"):
        SweepJournal(tmp_path / "run").record("c", {"rows": [3]})


def test_mid_file_corruption_rejected(tmp_path):
    """A mangled line *before* the tail means the file was edited, not
    crashed on — that is an error, never silently skipped."""
    with SweepJournal(tmp_path / "run") as journal:
        journal.record("a", {"rows": [1]})
        journal.record("b", {"rows": [2]})
    cells = tmp_path / "run" / "cells.jsonl"
    lines = cells.read_text().splitlines()
    lines[0] = lines[0][:-5] + 'oops"'
    cells.write_text("\n".join(lines) + "\n")
    with pytest.raises(JournalError, match="corrupt journal line 1"):
        SweepJournal(tmp_path / "run").completed()


def test_tampered_digest_rejected(tmp_path):
    with SweepJournal(tmp_path / "run") as journal:
        journal.record("a", {"rows": [1]})
        journal.record("b", {"rows": [2]})
    cells = tmp_path / "run" / "cells.jsonl"
    lines = cells.read_text().splitlines()
    entry = json.loads(lines[0])
    entry["result"] = {"rows": [999]}   # edit without fixing "check"
    lines[0] = json.dumps(entry)
    cells.write_text("\n".join(lines) + "\n")
    with pytest.raises(JournalError, match="corrupt"):
        SweepJournal(tmp_path / "run").completed()


def test_duplicate_keys_last_write_wins(tmp_path):
    """Re-running a cell (e.g. resumed twice concurrently) journals two
    records; recovery keeps the newest."""
    with SweepJournal(tmp_path / "run") as journal:
        journal.record("a", {"rows": [1]})
        journal.record("a", {"rows": [2]})
    assert SweepJournal(tmp_path / "run").completed() == {
        "a": {"rows": [2]}}


def test_empty_and_missing_journals(tmp_path):
    journal = SweepJournal(tmp_path / "run")
    assert journal.completed() == {}
    assert journal.read_spec() is None


@pytest.mark.parametrize("code", [errno.ENOSPC, errno.EACCES])
def test_record_disk_error_is_named_and_not_recorded(tmp_path, monkeypatch,
                                                     code):
    """A cell whose line cannot be made durable raises a JournalError
    naming the log and the errno, and the log is left as it was."""
    with SweepJournal(tmp_path / "run") as journal:
        journal.record("a", {"rows": [1]})
        before = journal.cells_path.read_bytes()

        def fail(fd):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(JournalError) as info:
            journal.record("b", {"rows": [2]})
        assert str(journal.cells_path) in str(info.value)
        assert f"[Errno {code}]" in str(info.value)
        assert journal.cells_path.read_bytes() == before
        monkeypatch.undo()
        journal.record("b", {"rows": [2]})     # the disk recovered
    assert SweepJournal(tmp_path / "run").completed() == {
        "a": {"rows": [1]}, "b": {"rows": [2]}}


def test_spec_disk_error_is_a_persist_error(tmp_path, monkeypatch):
    def fail(fd):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(PersistError,
                       match=rf"spec\.json.*\[Errno {errno.ENOSPC}\]"):
        SweepJournal(tmp_path / "run").write_spec(dict(SPEC))
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == []
