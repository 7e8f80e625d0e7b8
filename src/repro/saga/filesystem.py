"""SAGA filesystem: named files over storage volumes, timed copies.

A :class:`FileCatalog` gives a :class:`~repro.cluster.storage.StorageVolume`
a path namespace (the volume itself only accounts bytes).  ``copy_file``
moves a file between catalogs with properly-modeled read, wire and write
costs — the mechanism behind Compute-Unit stage-in/out and the Hadoop
tarball staging of Mode I.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.cluster.storage import StorageVolume
from repro.sim.engine import Environment, Event


class FileCatalog:
    """A path -> size namespace over one storage volume."""

    def __init__(self, env: Environment, volume: StorageVolume,
                 name: str = "catalog"):
        self.env = env
        self.volume = volume
        self.name = name
        self._files: Dict[str, float] = {}

    def exists(self, path: str) -> bool:
        return path in self._files

    def size(self, path: str) -> float:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundError(f"{self.name}:{path}") from None

    def list(self, prefix: str = "") -> Iterator[str]:
        """Paths under ``prefix``, sorted."""
        return iter(sorted(p for p in self._files if p.startswith(prefix)))

    def touch(self, path: str, nbytes: float) -> None:
        """Register a file without charging I/O (pre-existing data)."""
        self.volume.used += nbytes
        self._files[path] = nbytes

    def create(self, path: str, nbytes: float) -> Event:
        """Write a new file; completion event after the volume write."""
        if path in self._files:
            raise FileExistsError(f"{self.name}:{path}")
        event = self.volume.write(nbytes)
        self._files[path] = nbytes
        return event

    def read(self, path: str) -> Event:
        """Read the whole file; completion under volume fair-sharing."""
        return self.volume.read(self.size(path))

    def delete(self, path: str) -> None:
        nbytes = self.size(path)
        self.volume.delete(nbytes)
        del self._files[path]


def copy_file(env: Environment, src: FileCatalog, src_path: str,
              dst: FileCatalog, dst_path: str,
              wire_bw: Optional[float] = None):
    """Copy a file between catalogs.  Returns a process event.

    Same-volume copies pay read+write on the shared pipe; cross-volume
    copies pay the read, an optional wire transfer at ``wire_bw``
    (bytes/s — e.g. the WAN for inter-site staging), and the write.
    Overwrites at the destination are allowed, as with ``saga.filesystem
    .File.copy(..., OVERWRITE)``.
    """
    nbytes = src.size(src_path)

    def _copy():
        yield src.read(src_path)
        if wire_bw is not None and nbytes > 0:
            yield env.timeout(nbytes / wire_bw)
        if dst.exists(dst_path):
            dst.delete(dst_path)
        yield dst.create(dst_path, nbytes)

    return env.process(_copy(), name=f"copy:{src_path}->{dst_path}")
