"""The MongoDB stand-in against the query engine it replaced.

``Collection`` is what the coordination protocol uses: documents read
and written by ``_id``, one ``advance`` per state change, and a
per-pilot pending queue instead of an equality query.  The generic
``find``/``find_one``/``update_one`` engine (lazy secondary indexes
included) and the agent-side ``advance_doc`` it served live on here,
verbatim, as the reference model: generated programs drive both and
must leave equal documents, equal claim order per pilot and equal
watcher firings, and one end-to-end run on real pilots must reproduce
the ``(time, state)`` histories recorded before the replacement.
"""

import hashlib
import itertools
import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import (
    ComputePilotDescription,
    ComputeUnitDescription,
    PilotManager,
    PilotState,
    RestartPolicy,
    Session,
    UnitManager,
    UnitState,
)
from repro.cluster import stampede
from repro.core.db import Collection, Database, DuplicateKey
from repro.saga import Registry, Site
from repro.sim import Environment
from repro.sim.engine import Event
from tests.conftest import FAST_RMS
from tests.core.test_units import fast_agent

# ------------------------------------------------- the reference model
_MISSING = object()  # "no index built yet" (None means unindexable)


class ReferenceCollection:
    """The pre-replacement ``Collection``, kept verbatim.

    Equality queries on non-``_id`` keys are served from lazily built
    secondary indexes (one per queried key set), kept current by
    ``insert``/``update_one``.  Matches come back sorted by insertion
    sequence — the same order the full scan produces.
    """

    def __init__(self, env, name):
        self.env = env
        self.name = name
        self._docs = {}
        self._id_seq = itertools.count(1)
        self._watchers = []
        self._seq = {}
        self._seq_counter = itertools.count()
        # key-tuple -> value-tuple -> {_id: doc}; None marks a key set
        # with unhashable values (always scanned).
        self._indexes = {}

    def insert(self, doc):
        doc = dict(doc)
        doc.setdefault("_id", f"{self.name}.{next(self._id_seq)}")
        self._docs[doc["_id"]] = doc
        self._seq[doc["_id"]] = next(self._seq_counter)
        for keys, buckets in self._indexes.items():
            if buckets is None:
                continue
            try:
                value = tuple(doc.get(k) for k in keys)
                buckets.setdefault(value, {})[doc["_id"]] = doc
            except TypeError:
                self._indexes[keys] = None
        self._notify()
        return doc["_id"]

    def find(self, query=None):
        if query and "_id" in query:
            doc = self._docs.get(query["_id"])
            if doc is None:
                return []
            if all(doc.get(k) == v for k, v in query.items()):
                return [doc]
            return []
        if query:
            keys = tuple(sorted(query))
            buckets = self._indexes.get(keys, _MISSING)
            if buckets is _MISSING:
                buckets = self._build_index(keys)
            if buckets is not None:
                try:
                    value = tuple(query[k] for k in keys)
                    bucket = buckets.get(value)
                except TypeError:
                    bucket = None  # unhashable query value: scan below
                else:
                    if bucket is None:
                        return []
                    seq = self._seq
                    return sorted(bucket.values(),
                                  key=lambda d: seq[d["_id"]])
        out = []
        for doc in self._docs.values():
            if all(doc.get(k) == v for k, v in (query or {}).items()):
                out.append(doc)
        return out

    def _build_index(self, keys):
        buckets = {}
        try:
            for doc in self._docs.values():
                value = tuple(doc.get(k) for k in keys)
                buckets.setdefault(value, {})[doc["_id"]] = doc
        except TypeError:
            buckets = None
        self._indexes[keys] = buckets
        return buckets

    def find_one(self, query=None):
        matches = self.find(query)
        return matches[0] if matches else None

    def update_one(self, query, changes):
        doc = self.find_one(query)
        if doc is None:
            return False
        for keys, buckets in self._indexes.items():
            if buckets is None or not any(k in changes for k in keys):
                continue
            try:
                old = tuple(doc.get(k) for k in keys)
                new = tuple(changes.get(k, doc.get(k)) for k in keys)
                if new != old:
                    bucket = buckets[old]
                    del bucket[doc["_id"]]
                    if not bucket:
                        del buckets[old]
                    buckets.setdefault(new, {})[doc["_id"]] = doc
            except TypeError:
                self._indexes[keys] = None
        doc.update(changes)
        self._notify()
        return True

    def watch(self):
        event = Event(self.env)
        self._watchers.append(event)
        return event

    def _notify(self):
        watchers, self._watchers = self._watchers, []
        for event in watchers:
            if not event.triggered:
                event.succeed()


def advance_doc(collection, uid, state, now, **extra):
    """The pre-replacement state append (it lived in the agent module)."""
    doc = collection.find_one({"_id": uid})
    if doc is None:
        raise KeyError(f"no document {uid}")
    changes = dict(extra)
    changes["state"] = state.value
    changes["history"] = doc["history"] + [(now, state.value)]
    collection.update_one({"_id": uid}, changes)


def reference_claim(collection, pilot, claimed):
    """The pre-replacement ``Agent._claim_new_units``: an equality query
    per poll plus a set of every uid ever claimed."""
    fresh = []
    for doc in collection.find({
            "pilot": pilot, "state": UnitState.UMGR_SCHEDULING.value}):
        if doc["_id"] in claimed:
            continue
        claimed.add(doc["_id"])
        fresh.append(doc["_id"])
    return fresh


def make_reference():
    return ReferenceCollection(Environment(), "units")


def scan(col, query):
    """A verbatim linear scan (what the reference's indexes replaced)."""
    return [doc for doc in col._docs.values()
            if all(doc.get(k) == v for k, v in query.items())]


# ------------------------- the reference model is itself checked: its
# indexed reads are byte-identical (same docs, same order) to the scan
def test_indexed_find_matches_scan_order():
    col = make_reference()
    for i in range(50):
        col.insert({"_id": f"u{i}", "pilot": f"p{i % 3}",
                    "state": "NEW"})
    query = {"pilot": "p1", "state": "NEW"}
    assert col.find(query) == scan(col, query)
    # Index now exists; later inserts must land in it.
    col.insert({"_id": "u50", "pilot": "p1", "state": "NEW"})
    assert col.find(query) == scan(col, query)
    assert [d["_id"] for d in col.find(query)][-1] == "u50"


def test_update_moves_docs_between_buckets():
    col = make_reference()
    for i in range(10):
        col.insert({"_id": f"u{i}", "pilot": "p0", "state": "NEW"})
    assert len(col.find({"state": "NEW"})) == 10
    col.update_one({"_id": "u3"}, {"state": "DONE"})
    col.update_one({"_id": "u7"}, {"state": "DONE", "exit_code": 0})
    assert [d["_id"] for d in col.find({"state": "NEW"})] == [
        f"u{i}" for i in range(10) if i not in (3, 7)]
    assert [d["_id"] for d in col.find({"state": "DONE"})] == ["u3", "u7"]
    # Move one back: it re-enters the NEW bucket in scan position.
    col.update_one({"_id": "u3"}, {"state": "NEW"})
    assert col.find({"state": "NEW"}) == scan(col, {"state": "NEW"})


def test_unhashable_values_fall_back_to_scan():
    col = make_reference()
    col.insert({"_id": "a", "tags": ["x"], "state": "NEW"})
    col.insert({"_id": "b", "tags": ["x"], "state": "NEW"})
    # Unhashable doc values poison that index; results still correct.
    assert col.find({"tags": ["x"]}) == scan(col, {"tags": ["x"]})
    col.update_one({"_id": "a"}, {"tags": ["y"]})
    assert col.find({"tags": ["y"]}) == [col.find_one({"_id": "a"})]
    # Hashable keys stay indexed alongside.
    assert col.find({"state": "NEW"}) == scan(col, {"state": "NEW"})


def test_no_match_and_missing_key_queries():
    col = make_reference()
    col.insert({"_id": "a", "state": "NEW"})
    assert col.find({"state": "GONE"}) == []
    assert col.find({"nope": 1}) == []
    # Docs lacking the key match a None query value, as the scan did.
    assert col.find({"nope": None}) == scan(col, {"nope": None})


# --------------------------------------------- differential: programs
PILOTS = ("pilot.0000", "pilot.0001", "pilot.0002")
PIPELINE = [UnitState.AGENT_STAGING_INPUT, UnitState.AGENT_SCHEDULING,
            UnitState.EXECUTING, UnitState.AGENT_STAGING_OUTPUT,
            UnitState.DONE]
UNCLAIMED = (UnitState.NEW.value, UnitState.UMGR_SCHEDULING.value)


class Pair:
    """One program, applied to the collection and to the reference."""

    def __init__(self):
        self.new = Collection(Environment(), "units")
        self.ref = ReferenceCollection(Environment(), "units")
        self.claimed_ref = {pilot: set() for pilot in PILOTS}
        self.claim_order = {pilot: [] for pilot in PILOTS}
        self.claimed = []           # uids some agent owns, claim order
        self.uids = []
        self.watches = []           # (new event, reference event)
        self.clock = 0.0

    def _tick(self):
        self.clock += 0.25
        return self.clock

    def submit(self, pilot):
        """``UnitManager._insert_unit``: insert, schedule, queue."""
        uid = f"unit.{len(self.uids):06d}"
        self.uids.append(uid)
        now = self._tick()
        for col in (self.new, self.ref):
            col.insert({"_id": uid, "pilot": pilot,
                        "state": UnitState.NEW.value,
                        "history": [(now, UnitState.NEW.value)],
                        "result": None, "stderr": "", "exit_code": None})
        self.new.advance(uid, UnitState.UMGR_SCHEDULING, now)
        self.new.enqueue(pilot, uid)
        advance_doc(self.ref, uid, UnitState.UMGR_SCHEDULING, now)

    def claim(self, pilot):
        """One agent poll for ``pilot``."""
        fresh = [doc["_id"] for doc in self.new.drain(pilot)
                 if doc["state"] == UnitState.UMGR_SCHEDULING.value]
        assert fresh == reference_claim(self.ref, pilot,
                                        self.claimed_ref[pilot])
        self.claim_order[pilot] += fresh
        self.claimed += fresh

    def _advance(self, uid, state, **extra):
        now = self._tick()
        self.new.advance(uid, state, now, **extra)
        advance_doc(self.ref, uid, state, now, **extra)

    def step(self, pick, fail):
        """Move one claimed unit one pipeline state on (or fail it)."""
        live = [uid for uid in self.claimed
                if not UnitState(self.new.get(uid)["state"]).is_final]
        if not live:
            return
        uid = live[pick % len(live)]
        if fail:
            self._advance(uid, UnitState.FAILED, stderr="boom",
                          exit_code=1)
            return
        nxt = PIPELINE[len(self.new.get(uid)["history"]) - 2]
        extra = {"result": pick, "exit_code": 0} \
            if nxt is UnitState.DONE else {}
        self._advance(uid, nxt, **extra)

    def cancel(self, pick):
        """``UnitManager.cancel_units``: only before an agent claim."""
        if not self.uids:
            return
        uid = self.uids[pick % len(self.uids)]
        if self.new.get(uid)["state"] in UNCLAIMED:
            self._advance(uid, UnitState.CANCELED)

    def set(self, pick, value):
        if not self.uids:
            return
        uid = self.uids[pick % len(self.uids)]
        self.new.set(uid, {"heartbeat": value})
        assert self.ref.update_one({"_id": uid}, {"heartbeat": value})

    def watch(self):
        self.watches.append((self.new.watch(), self.ref.watch()))

    def check(self):
        """Equal documents in equal order; the same watchers fired."""
        assert list(self.new._docs.values()) \
            == list(self.ref._docs.values())
        assert [a.triggered for a, _ in self.watches] \
            == [b.triggered for _, b in self.watches]


OPS = st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(PILOTS)),
    st.tuples(st.just("claim"), st.sampled_from(PILOTS)),
    st.tuples(st.just("step"), st.integers(0, 50), st.booleans()),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("set"), st.integers(0, 50), st.integers(0, 5)),
    st.tuples(st.just("watch")),
)


@given(program=st.lists(OPS, max_size=80))
@settings(max_examples=150, deadline=None)
def test_randomized_churn_differential(program):
    pair = Pair()
    for op, *args in program:
        getattr(pair, op)(*args)
        pair.check()
    for pilot in PILOTS:           # a final poll drains what is queued
        pair.claim(pilot)
    pair.check()
    # every claim, per pilot, in submission order and exactly once
    for pilot, order in pair.claim_order.items():
        assert order == sorted(set(order))
        assert all(pair.new.get(uid)["pilot"] == pilot for uid in order)
    assert pair.new.snapshot_state()["pending"] == {}


def test_long_seeded_program_matches_the_reference():
    """One long mixed run (the shape the short generated ones rarely
    reach: hundreds of documents, many polls)."""
    rng = random.Random(11)
    pair = Pair()
    for _ in range(3000):
        roll = rng.random()
        if roll < 0.2:
            pair.submit(rng.choice(PILOTS))
        elif roll < 0.3:
            pair.claim(rng.choice(PILOTS))
        elif roll < 0.8:
            pair.step(rng.randrange(1000), rng.random() < 0.05)
        elif roll < 0.85:
            pair.cancel(rng.randrange(1000))
        elif roll < 0.95:
            pair.set(rng.randrange(1000), rng.randrange(5))
        else:
            pair.watch()
        pair.check()
    assert len(pair.uids) > 400 and len(pair.claimed) > 300


# ------------------------------------------------ the collection itself
def make_collection():
    return Database(Environment()).collection("units")


def test_duplicate_id_is_refused_by_name():
    col = make_collection()
    col.insert({"_id": "a", "state": "New"})
    watch = col.watch()
    with pytest.raises(DuplicateKey, match=r"units.*'a'") as info:
        col.insert({"_id": "a", "state": "Done"})
    assert isinstance(info.value, KeyError)
    assert col.get("a") == {"_id": "a", "state": "New"}
    assert len(col) == 1 and not watch.triggered


@pytest.mark.parametrize("call", [
    lambda col: col.get("nope"),
    lambda col: col.get_many(["a", "nope"]),
    lambda col: col.set("nope", {"x": 1}),
    lambda col: col.advance("nope", UnitState.DONE, 0.0),
], ids=["get", "get_many", "set", "advance"])
def test_missing_document_is_a_named_key_error(call):
    col = make_collection()
    col.insert({"_id": "a", "state": "New", "history": []})
    watch = col.watch()
    with pytest.raises(KeyError, match=r"units: no document 'nope'"):
        call(col)
    assert not watch.triggered


def test_advance_is_one_change_with_its_extras():
    col = make_collection()
    col.insert({"_id": "a", "state": "New", "history": [(0.0, "New")]})
    first, second = col.watch(), col.watch()
    col.advance("a", UnitState.DONE, 2.5, result=42, exit_code=0)
    assert first.triggered and second.triggered
    assert col.get("a") == {
        "_id": "a", "state": "Done", "result": 42, "exit_code": 0,
        "history": [(0.0, "New"), (2.5, "Done")]}
    assert col.get_many(["a", "a"]) == [col.get("a")] * 2


def test_pending_queue_delivers_each_id_once_in_queue_order():
    col = make_collection()
    for i in range(6):
        col.insert({"_id": f"u{i}"})
    for i in (4, 0, 2):
        col.enqueue("p0", f"u{i}")
    col.enqueue("p1", "u5")
    assert [d["_id"] for d in col.drain("p0")] == ["u4", "u0", "u2"]
    assert col.drain("p0") == [] and col.drain("nobody") == []
    col.enqueue("p0", "u1")
    assert [d["_id"] for d in col.drain("p0")] == ["u1"]
    assert [d["_id"] for d in col.drain("p1")] == ["u5"]


def test_snapshot_is_insertion_ordered_and_shows_the_queues():
    db = Database(Environment())
    col = db.collection("units")
    for _id in ("b", "a", "c"):
        col.insert({"_id": _id, "state": "New"})
    col.set("b", {"state": "Done"})
    col.enqueue("p1", "c")
    col.enqueue("p0", "a")
    snap = col.snapshot_state()
    assert [d["_id"] for d in snap["docs"]] == ["b", "a", "c"]
    assert snap["pending"] == {"p0": ["a"], "p1": ["c"]}
    assert db.snapshot_state() == {"units": snap}
    col.drain("p1")
    assert col.snapshot_state()["pending"] == {"p0": ["a"]}


# ------------------------------------------------ one path stays one path
def test_no_generic_query_path_in_src():
    """The query engine above (and the ledgers it needed) must not
    creep back as a second mechanism: nothing under ``src/repro``
    calls, imports or even names them."""
    banned = re.compile(r"\b(find_one|update_one|advance_doc|_build_index"
                        r"|_observed|_claimed)\b")
    offenders = [
        f"{path}:{text.count(chr(10), 0, match.start()) + 1}"
        for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
        for text in [path.read_text()]
        for match in banned.finditer(text)]
    assert offenders == []


# -------------------------------------------------- end to end, golden
#: sha256 over the JSON of every handle's ``(time, state)`` history in
#: the scenario below, recorded on the commit before the replacement
#: (439f15d): 298 handles, 58,369 bytes of JSON.
GOLDEN_HISTORIES_SHA256 = \
    "7928a2097b9c5b094a3dacd975ab8772c79b5a228ba77451fcf8df0c8fe79401"


def test_fork_pilot_histories_equal_the_recorded_golden():
    """200 units over a hung and a healthy fork pilot, four cancelled
    before the first poll, the hung pilot failed by the heartbeat
    monitor and its stranded units restarted on the healthy one."""
    env = Environment()
    registry = Registry()
    registry.register(Site(env, stampede(num_nodes=3),
                           rms_config=FAST_RMS))
    session = Session(env, registry)
    pmgr = PilotManager(session, heartbeat_timeout=20.0,
                        heartbeat_check_interval=5.0)
    umgr = UnitManager(session, restart_policy=RestartPolicy(
        max_restarts=2, backoff=1.0, backoff_factor=2.0, backoff_cap=8.0))
    hung = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://stampede", nodes=1, runtime=600,
        agent_config=fast_agent(db_poll_interval=1e6)))
    healthy = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://stampede", nodes=1, runtime=600,
        agent_config=fast_agent()))
    umgr.add_pilots([hung, healthy])
    env.run(env.all_of([hung.wait(PilotState.ACTIVE),
                        healthy.wait(PilotState.ACTIVE)]))
    units = umgr.submit_units([
        ComputeUnitDescription(cores=1, cpu_seconds=0.5 + 0.01 * (i % 7))
        for i in range(200)])
    cancelled = [units[3], units[4], units[77], units[198]]
    umgr.cancel_units(cancelled)
    env.run(umgr.wait_units(units))

    assert hung.state is PilotState.FAILED
    assert healthy.state is PilotState.ACTIVE
    assert Counter(u.state for u in umgr.units.values()) == {
        UnitState.DONE: 196, UnitState.FAILED: 98, UnitState.CANCELED: 4}
    assert Counter(umgr.final_unit(u).state for u in units) == {
        UnitState.DONE: 196, UnitState.CANCELED: 4}
    # spot checks a reader can follow without the digest
    submitted = 3.0398448057690497
    assert [(t, s.value) for t, s in units[0].history] == [
        (submitted, "New"), (submitted, "UmgrScheduling"),
        (25.0, "Failed")]                       # stranded on the hung pilot
    assert all([(t, s.value) for t, s in u.history] == [
        (submitted, "New"), (submitted, "UmgrScheduling"),
        (submitted, "Canceled")] for u in cancelled)
    last = umgr.units[max(umgr.units)]
    assert umgr._roots[last.uid] == units[196].uid
    assert [(t, s.value) for t, s in last.history] == [
        (26.0, "New"), (26.0, "UmgrScheduling"),
        (26.03984480576899, "AgentStagingInput"),
        (26.03984480576899, "AgentScheduling"),
        (31.249844805769, "Executing"),
        (31.749844805769, "AgentStagingOutput"),
        (31.749844805769, "Done")]
    # ...and every handle, to the last bit
    histories = [[uid, [[t, s.value] for t, s in unit.history]]
                 for uid, unit in sorted(umgr.units.items())]
    blob = json.dumps(histories, separators=(",", ":"))
    assert len(histories) == 298
    assert hashlib.sha256(blob.encode()).hexdigest() \
        == GOLDEN_HISTORIES_SHA256
    # nothing is left behind: the live set and the healthy queue drain
    assert umgr._live == {}
    assert session.db.collection("units").snapshot_state()["pending"] \
        .keys() <= {hung.uid}
