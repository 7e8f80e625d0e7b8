"""HDFS blocks and replicas."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Default HDFS block size (dfs.blocksize), 128 MB as in Hadoop 2.x.
DEFAULT_BLOCK_SIZE = 128 * 1024 ** 2


@dataclass(frozen=True)
class Block:
    """One block of a file: immutable identity + geometry.

    ``payload`` optionally carries the real data slice backing this
    block (kept out of equality/hash: identity is the block id).
    """

    block_id: int
    path: str
    index: int          # position within the file
    nbytes: float
    payload: Any = field(default=None, compare=False, hash=False)
