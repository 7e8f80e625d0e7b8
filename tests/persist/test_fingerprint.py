"""The state digest's one-pass encoder against the reference walk.

``reference_canonical`` is the recursive Python walk the fingerprint
used to run before ``json.dumps``: it reduces any value to plain,
order-stable data.  The encoder in :mod:`repro.persist.checkpoint`
reaches the same bytes in one C pass over the live snapshots; these
tests hold it to that, on generated values and on real worlds.
"""

import enum
import functools
import gc
import weakref
from dataclasses import dataclass, fields, is_dataclass
from typing import Any

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.persist import (
    canonical_json,
    launch,
    restore,
    state_digest,
    state_fingerprint,
)
from repro.persist.checkpoint import _ENCODER, _sections
from repro.persist.store import text_digest


def reference_canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-able, order-stable form (the oracle)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): reference_canonical(v)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [reference_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(reference_canonical(v) for v in value)
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: reference_canonical(getattr(value, f.name))
                for f in fields(value)}
    if callable(value):
        name = getattr(value, "__qualname__",
                       getattr(value, "__name__", type(value).__name__))
        return f"<callable:{name}>"
    uid = getattr(value, "uid", None)
    if isinstance(uid, str):
        return f"<{type(value).__name__}:{uid}>"
    return f"<{type(value).__name__}>"


def reference_text(value: Any) -> str:
    return canonical_json(reference_canonical(value))


# ------------------------------------------------------- generated values
class Level(enum.IntEnum):
    LOW = 1
    HIGH = 10


class Mode(str, enum.Enum):
    FORK = "fork"
    YARN = "yarn"


@dataclass
class Box:
    first: Any
    second: Any = None


@dataclass(frozen=True)
class Frozen:
    value: Any
    label: str = "frozen"


class Handle:
    """A live object the fingerprint names by its ``uid``."""

    def __init__(self, uid):
        self.uid = uid

    def step(self):
        return self.uid


class Opaque:
    """A live object with nothing to name it by but its type."""


LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats() | st.sampled_from([-0.0, 0.0, 1e300, -1e-300]),
    st.text(max_size=8), st.sampled_from(Level), st.sampled_from(Mode),
    st.sampled_from([len, reference_canonical, Handle, Box, Handle("h").step,
                     functools.partial(max, 1), lambda: None]),
    st.text(max_size=4).map(Handle), st.integers().map(Handle),
    st.builds(Opaque),
)

SETS = st.one_of(
    st.sets(st.integers(), max_size=5), st.frozensets(st.text(max_size=4)),
    st.sets(st.sampled_from(Mode)), st.frozensets(st.sampled_from(Level)))

VALUES = st.recursive(
    LEAVES | SETS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.builds(Box, children, children),
        st.builds(Frozen, children),
    ),
    max_leaves=24)


#: One of every leaf kind, so each ``_leaf`` branch runs on every run.
EVERY_LEAF = {
    "callables": [len, reference_canonical, Handle, Box, Handle("h").step,
                  functools.partial(max, 1), lambda: None],
    "named": [Handle("u.1"), Handle(7), Opaque()],
    "numbers": [-0.0, 1e300, float("inf"), Level.HIGH, True],
    "strings": ["", "\u00e9", Mode.YARN],
    "sets": [{3, 1, 2}, frozenset({"b", "a"}), {Mode.YARN, Mode.FORK},
             frozenset({Level.HIGH, Level.LOW})],
    "dataclasses": Box(Frozen((1, "x")), [Box(None)]),
}


@settings(max_examples=300, deadline=None)
@example(EVERY_LEAF)
@given(VALUES)
def test_encoder_matches_reference_on_generated_values(value):
    encoded = _ENCODER.encode(value)
    assert encoded == reference_text(value)
    assert text_digest(encoded) == text_digest(reference_text(value))


# ----------------------------------------------------------- real worlds
WORLDS = {
    "bag-RP": ("bag", {"ntasks": 8, "flavor": "RP"}, False),
    "bag-RP-YARN": ("bag", {"ntasks": 8, "flavor": "RP-YARN"}, False),
    "raptor-stream": ("raptor-stream", {"ntasks": 12}, False),
    "bag-telemetry": ("bag", {"ntasks": 8}, True),
}


def test_encoder_matches_reference_at_barriers():
    """Five barriers of each world: the digested text, the public
    fingerprint and the digest all equal the reference walk's."""
    for label, (name, params, telemetry) in WORLDS.items():
        session = launch(name, seed=9, **params)
        if telemetry:      # the first access installs the hub
            assert session.telemetry is session.env.telemetry
        for _ in range(5):
            sections = _sections(session)
            expected = reference_text(sections)
            assert _ENCODER.encode(sections) == expected, label
            assert state_fingerprint(session) == \
                reference_canonical(_sections(session)), label
            assert state_digest(session) == text_digest(expected), label
            session.env.run(until=session.env.now + 11.0)
        if telemetry:
            assert "telemetry" in sections


def test_restores_do_not_pile_up_worlds(tmp_path):
    """A restored world is cyclic garbage once dropped; restore frees
    such worlds before replaying the next, so with automatic collection
    off, three restores in a row leave at most one earlier world alive
    (the one dropped after the last restore began)."""
    session = launch("bag", seed=9, ntasks=4, nodes=2)
    session.env.run(until=60.0)
    session.checkpoint(tmp_path / "s")
    envs = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            restored = restore(tmp_path / "s")
            envs.append(weakref.ref(restored.env))
        alive = [ref for ref in envs[:-1] if ref() is not None]
    finally:
        if enabled:
            gc.enable()
    assert len(alive) <= 1
