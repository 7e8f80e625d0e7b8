"""The content-addressed snapshot store: atomicity, integrity, refs."""

import errno
import json
import os

import pytest

from repro.persist import (
    STORE_FORMAT,
    PersistError,
    SnapshotStore,
    StoreError,
    canonical_json,
    payload_digest,
)


def test_put_get_round_trip(tmp_path):
    store = SnapshotStore(tmp_path / "s")
    payload = {"kind": "demo", "values": [1, 2, 3], "nested": {"a": 1}}
    digest = store.put(payload)
    assert digest == payload_digest(payload)
    assert store.get(digest) == payload
    assert digest in store


def test_put_is_idempotent_and_content_addressed(tmp_path):
    store = SnapshotStore(tmp_path / "s")
    a = store.put({"x": 1})
    b = store.put({"x": 1})
    c = store.put({"x": 2})
    assert a == b != c
    assert store.digests() == sorted([a, c])


def test_key_order_never_changes_the_digest(tmp_path):
    store = SnapshotStore(tmp_path / "s")
    assert store.put({"a": 1, "b": 2}) == store.put({"b": 2, "a": 1})


def test_refs_move_atomically_and_resolve(tmp_path):
    store = SnapshotStore(tmp_path / "s")
    first = store.put({"rev": 1})
    second = store.put({"rev": 2})
    store.set_ref("latest", first)
    assert store.refs().get("latest") == first
    store.set_ref("latest", second)
    assert store.refs().get("latest") == second
    assert store.refs() == {"latest": second}
    assert store.resolve("latest") == {"rev": 2}
    assert store.resolve(first) == {"rev": 1}


def test_set_ref_blocks_behind_the_refs_lock(tmp_path):
    """Concurrent checkpoints into one store must not drop each
    other's ref updates: set_ref waits for the advisory lock."""
    fcntl = pytest.importorskip("fcntl")
    import threading

    store = SnapshotStore(tmp_path / "s")
    digest = store.put({"rev": 1})
    fd = os.open(store.root / "refs.lock", os.O_CREAT | os.O_RDWR)
    fcntl.flock(fd, fcntl.LOCK_EX)
    done = threading.Event()

    def contender():
        store.set_ref("latest", digest)
        done.set()

    thread = threading.Thread(target=contender)
    thread.start()
    try:
        assert not done.wait(0.2)       # blocked while we hold the lock
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)
    thread.join(timeout=10)
    assert done.is_set()
    assert store.refs().get("latest") == digest


def test_ref_to_unknown_object_rejected(tmp_path):
    store = SnapshotStore(tmp_path / "s")
    with pytest.raises(StoreError, match="unknown object"):
        store.set_ref("latest", "0" * 64)


def test_corrupt_object_detected_on_read(tmp_path):
    store = SnapshotStore(tmp_path / "s")
    digest = store.put({"x": 1})
    path = store.objects / f"{digest}.json"
    path.write_text(json.dumps({"x": 2}))
    with pytest.raises(StoreError, match="corrupt"):
        store.get(digest)
    with pytest.raises(StoreError, match="corrupt"):
        store.verify()


def test_verify_counts_clean_objects(tmp_path):
    store = SnapshotStore(tmp_path / "s")
    for i in range(3):
        store.put({"i": i})
    assert store.verify() == 3


def test_missing_store_rejected_without_create(tmp_path):
    with pytest.raises(StoreError, match="no snapshot store"):
        SnapshotStore(tmp_path / "nope", create=False)


def test_format_mismatch_rejected(tmp_path):
    root = tmp_path / "s"
    SnapshotStore(root)
    (root / "store.json").write_text(
        json.dumps({"format": STORE_FORMAT + 1}))
    with pytest.raises(StoreError, match="format"):
        SnapshotStore(root)


def test_no_temp_files_left_behind(tmp_path):
    """Every write goes through tmp+rename; nothing stays half-written."""
    store = SnapshotStore(tmp_path / "s")
    digest = store.put({"x": 1})
    store.set_ref("latest", digest)
    leftovers = [p for p in (tmp_path / "s").rglob("*")
                 if f".tmp.{os.getpid()}" in p.name]
    assert leftovers == []


def test_put_writes_the_bytes_it_digests(tmp_path):
    """One encoding serves both the content address and the file."""
    store = SnapshotStore(tmp_path / "s")
    payload = {"b": [1.5, -0.0], "a": {"z": None, "y": "\u00e9"}}
    digest = store.put(payload)
    text = (store.objects / f"{digest}.json").read_text()
    assert text == canonical_json(payload) + "\n"
    assert digest == payload_digest(payload)


def failing(code):
    """A stand-in for an ``os`` call that fails with errno ``code``."""
    def fail(*args, **kwargs):
        raise OSError(code, os.strerror(code))
    return fail


@pytest.mark.parametrize("call,code", [
    ("fsync", errno.ENOSPC), ("replace", errno.EACCES)])
def test_disk_error_is_named_and_leaves_no_tmp_file(tmp_path, monkeypatch,
                                                    call, code):
    """A failing disk ends in a PersistError naming the path and the
    errno, and the write's tmp file is gone; the store is unchanged."""
    store = SnapshotStore(tmp_path / "s")
    before = sorted(p.name for p in (tmp_path / "s").rglob("*"))
    monkeypatch.setattr(os, call, failing(code))
    with pytest.raises(PersistError) as info:
        store.put({"x": 1})
    message = str(info.value)
    assert str(store.objects) in message
    assert f"[Errno {code}] {os.strerror(code)}" in message
    assert isinstance(info.value.__cause__, OSError)
    assert sorted(p.name for p in (tmp_path / "s").rglob("*")) == before
