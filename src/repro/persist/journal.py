"""Crash-safe sweep journal: spec + append-only per-cell completion log.

A resumable sweep run directory holds exactly two files:

* ``spec.json`` — the sweep's identity (grid, root seed, quick flag and
  the full cell list with keys + seeds), written atomically before any
  cell starts.  Resuming validates the identity byte-for-byte, so a
  journal can never be replayed against a different grid.
* ``cells.jsonl`` — one line per *completed* cell, appended with
  ``flush()`` + ``fsync()`` so a SIGKILL between cells loses at most
  the cell that was in flight.  Every line carries its own integrity
  digest; a torn tail (the classic crash artifact of an append) is
  detected and dropped on recovery instead of poisoning the resume.

Worker parallelism needs no locking: only the parent process appends,
recording results as the pool hands them back.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from repro.persist.store import PersistError, atomic_write, canonical_json

#: Journal layout version.
JOURNAL_FORMAT = 1


class JournalError(PersistError):
    """Raised for journal/spec mismatches and corrupt run directories."""


def _line_digest(payload: Dict[str, Any]) -> str:
    """Integrity digest for one journal line (body without ``check``)."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


def _entry(line: str) -> Optional[Dict[str, Any]]:
    """The entry one journal line holds, or None if its check fails."""
    try:
        entry = json.loads(line)
        return entry if entry.pop("check") == _line_digest(entry) else None
    except (json.JSONDecodeError, KeyError, TypeError):
        return None


class SweepJournal:
    """One resumable sweep run directory."""

    SPEC = "spec.json"
    CELLS = "cells.jsonl"

    def __init__(self, run_dir: Path | str):
        self.run_dir = Path(run_dir)
        self.spec_path = self.run_dir / self.SPEC
        self.cells_path = self.run_dir / self.CELLS
        self._fh = None

    # ------------------------------------------------------------- the spec
    def write_spec(self, spec: Dict[str, Any]) -> None:
        """Commit the sweep identity (atomic; refuses to change it)."""
        existing = self.read_spec()
        payload = {"format": JOURNAL_FORMAT, **spec}
        if existing is not None:
            if existing != payload:
                raise JournalError(
                    f"run dir {self.run_dir} already journals a "
                    f"different sweep (grid {existing.get('grid')!r}, "
                    f"root_seed {existing.get('root_seed')}); use a "
                    f"fresh --run-dir or matching parameters")
            return
        self.run_dir.mkdir(parents=True, exist_ok=True)
        atomic_write(self.spec_path, canonical_json(payload) + "\n")

    def read_spec(self) -> Optional[Dict[str, Any]]:
        if not self.spec_path.exists():
            return None
        try:
            spec = json.loads(self.spec_path.read_text())
        except json.JSONDecodeError as exc:
            raise JournalError(
                f"corrupt sweep spec {self.spec_path}: {exc}") from exc
        if spec.get("format") != JOURNAL_FORMAT:
            raise JournalError(
                f"sweep journal format {spec.get('format')!r} in "
                f"{self.run_dir}; this build reads format "
                f"{JOURNAL_FORMAT}")
        return spec

    # ------------------------------------------------------------ the cells
    def _repair_torn_tail(self) -> None:
        """Truncate a crash's torn final line *on disk* before appending.

        :meth:`completed` drops a torn tail in memory, but the fragment
        is still in the file — appending straight after it would merge
        the fragment and the new record into one corrupt line that is
        no longer at the tail, turning a recoverable crash artifact
        into a permanently unresumable journal.  Validates lines with
        the same digest check as recovery and truncates to the end of
        the last durable one; a valid final line that merely lost its
        newline gets the newline restored instead of being dropped.
        """
        if not self.cells_path.exists():
            return
        raw = self.cells_path.read_bytes()
        good_end = 0   # byte offset just past the last durable line
        pos = 0
        while pos < len(raw):
            newline = raw.find(b"\n", pos)
            end = len(raw) if newline < 0 else newline + 1
            line = raw[pos:end].decode("utf-8", "replace").strip()
            if line and _entry(line) is None:   # completed() skips blanks
                if end < len(raw):
                    raise JournalError(
                        f"corrupt journal line in {self.cells_path} "
                        f"(not the final line, so not a crash artifact)")
                break
            good_end = end
            pos = end
        if good_end < len(raw):
            with open(self.cells_path, "r+b") as fh:
                fh.truncate(good_end)
                fh.flush()
                os.fsync(fh.fileno())
        elif raw and not raw.endswith(b"\n"):
            with open(self.cells_path, "ab") as fh:
                fh.write(b"\n")
                fh.flush()
                os.fsync(fh.fileno())

    def record(self, key: str, result: Dict[str, Any]) -> None:
        """Append one completed cell; durable before return."""
        body = {"key": key, "result": result}
        line = canonical_json({**body, "check": _line_digest(body)})
        if self._fh is None:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            self._repair_torn_tail()
            self._fh = open(self.cells_path, "a", encoding="utf-8")
        start = self._fh.tell()
        try:
            self._fh.write(line + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as exc:
            # Leave the log as it was (at worst a torn tail, which the
            # next open repairs): the cell counts as not run.
            with contextlib.suppress(OSError):
                self._fh.close()
                os.truncate(self.cells_path, start)
            self._fh = None
            raise JournalError(
                f"cannot append to {self.cells_path}: {exc}") from exc

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def completed(self) -> Dict[str, Dict[str, Any]]:
        """Recover ``{cell key: result}`` from the journal.

        Tolerates exactly the corruption a crash can produce — a torn
        final line — and rejects anything else (a mangled digest in the
        middle of the log means the file was edited, not crashed on).
        """
        if not self.cells_path.exists():
            return {}
        results: Dict[str, Dict[str, Any]] = {}
        lines = self.cells_path.read_text().splitlines()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            entry = _entry(line)
            if entry is None:
                if lineno == len(lines):
                    break  # torn tail from a crash mid-append: drop it
                raise JournalError(
                    f"corrupt journal line {lineno} in {self.cells_path} "
                    f"(not the final line, so not a crash artifact)")
            results[entry["key"]] = entry["result"]
        return results

    def pending(self, keys: Iterable[str]) -> List[str]:
        """The subset of ``keys`` not yet journaled, in given order."""
        done = self.completed()
        return [key for key in keys if key not in done]
