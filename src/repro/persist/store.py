"""Content-digested, versioned on-disk snapshot store.

The durable half of the checkpoint layer — the stand-in for the
paper's persistent MongoDB coordination store.  Records are canonical
JSON blobs addressed by their own sha256 digest (``objects/<digest>``),
so the store is append-only by construction: a record can never be
mutated in place, only superseded by a new digest.  Human-meaningful
names (``latest``, ``barrier-120``) live in a small ``refs.json`` map
that is replaced atomically.

Crash safety uses the classic write-ahead pattern throughout: every
file lands as ``<name>.tmp.<pid>`` first, is flushed and fsync'd, and
only then renamed over the final path (``os.replace`` is atomic on
POSIX).  A process killed at any instant leaves either the old state
or the new state on disk — never a torn file.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional

try:
    import fcntl
except ImportError:              # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

#: On-disk format version; bumped on incompatible layout changes.
STORE_FORMAT = 1


class PersistError(RuntimeError):
    """Base class for persistence-layer failures."""


class StoreError(PersistError):
    """Raised for malformed or corrupt snapshot stores."""


def canonical_json(payload) -> str:
    """The byte-stable serialization every digest is computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def text_digest(text: str) -> str:
    """sha256 of a canonical JSON text."""
    return hashlib.sha256(text.encode()).hexdigest()


def payload_digest(payload) -> str:
    """sha256 of the canonical JSON form of ``payload``."""
    return text_digest(canonical_json(payload))


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a completed rename survives power loss."""
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(path, flags)
    except OSError:
        return   # platform cannot open directories (e.g. Windows)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: Path, data: str) -> None:
    """Write ``data`` to ``path`` via tmp-file + fsync + atomic rename.

    The parent directory is fsync'd after the rename, so the commit is
    durable against power failure, not just process death.  A disk
    error leaves no tmp file and raises :class:`PersistError`.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise PersistError(f"cannot write {path}: {exc}") from exc


class SnapshotStore:
    """A directory of content-addressed snapshot records + named refs.

    ::

        store/
          store.json        # {"format": 1}
          refs.json         # {"latest": "<digest>", ...}
          objects/
            <sha256>.json   # canonical-JSON records

    ``put`` is idempotent (same payload -> same digest -> same file)
    and ``get`` re-digests what it reads, so silent on-disk corruption
    is always detected, never deserialized into a half-wrong restore.
    """

    def __init__(self, root: Path | str, create: bool = True):
        self.root = Path(root)
        self.objects = self.root / "objects"
        self._meta_path = self.root / "store.json"
        self._refs_path = self.root / "refs.json"
        if self._meta_path.exists():
            meta = json.loads(self._meta_path.read_text())
            if meta.get("format") != STORE_FORMAT:
                raise StoreError(
                    f"snapshot store {self.root} has format "
                    f"{meta.get('format')!r}; this build reads format "
                    f"{STORE_FORMAT}")
        elif create:
            self.objects.mkdir(parents=True, exist_ok=True)
            atomic_write(self._meta_path,
                         canonical_json({"format": STORE_FORMAT}) + "\n")
        else:
            raise StoreError(f"no snapshot store at {self.root}")

    # -------------------------------------------------------------- objects
    def put(self, payload: Dict) -> str:
        """Store one record; returns its content digest."""
        text = canonical_json(payload)
        digest = text_digest(text)
        path = self.objects / f"{digest}.json"
        if not path.exists():
            self.objects.mkdir(parents=True, exist_ok=True)
            atomic_write(path, text + "\n")
        return digest

    def get(self, digest: str) -> Dict:
        """Load one record, verifying content against its address."""
        path = self.objects / f"{digest}.json"
        if not path.exists():
            raise StoreError(f"no object {digest} in {self.root}")
        text = path.read_text()
        payload = json.loads(text)
        actual = payload_digest(payload)
        if actual != digest:
            raise StoreError(
                f"object {digest} in {self.root} is corrupt "
                f"(content digests to {actual})")
        return payload

    def __contains__(self, digest: str) -> bool:
        return (self.objects / f"{digest}.json").exists()

    def digests(self) -> list:
        """Every stored object digest, sorted."""
        if not self.objects.exists():
            return []
        return sorted(p.stem for p in self.objects.glob("*.json"))

    def verify(self) -> int:
        """Round-trip every object; returns the count verified.

        Raises :class:`StoreError` on the first corrupt record — used
        by CI to keep the store schema and the on-disk bytes honest.
        """
        count = 0
        for digest in self.digests():
            self.get(digest)
            count += 1
        return count

    # ----------------------------------------------------------------- refs
    def refs(self) -> Dict[str, str]:
        if not self._refs_path.exists():
            return {}
        return dict(json.loads(self._refs_path.read_text()))

    def ref(self, name: str) -> Optional[str]:
        return self.refs().get(name)

    @contextlib.contextmanager
    def _refs_lock(self):
        """Exclusive advisory lock serializing refs.json updates.

        Two processes checkpointing into one store both read-modify-
        write the refs map; without the lock the later writer would
        silently drop the earlier one's ref.
        """
        fd = os.open(self.root / "refs.lock",
                     os.O_CREAT | os.O_RDWR, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)   # closing the fd releases the flock

    def set_ref(self, name: str, digest: str) -> None:
        """Point ``name`` at ``digest`` (locked read-modify-write,
        atomic replace of refs.json)."""
        if digest not in self:
            raise StoreError(
                f"cannot ref unknown object {digest} as {name!r}")
        with self._refs_lock():
            refs = self.refs()
            refs[name] = digest
            atomic_write(self._refs_path, canonical_json(refs) + "\n")

    def resolve(self, name_or_digest: str) -> Dict:
        """Load a record by ref name or raw digest."""
        digest = self.refs().get(name_or_digest, name_or_digest)
        return self.get(digest)
