"""simlint rules: the determinism/correctness hazard catalogue.

Each rule encodes one bug class that has actually broken (or would
break) the reproducibility of the paper's figures:

=======  ==============================================================
SIM001   wall-clock call in simulation code (``time.time``,
         ``datetime.now``...) — simulated time must come from
         ``env.now``
SIM002   global / unseeded RNG (``random.*``, ``np.random.*`` module
         state) — randomness must come from seeded
         ``repro.sim.rng`` streams
SIM003   builtin ``hash()`` — salted per process by PYTHONHASHSEED;
         use ``repro.hashing.stable_hash``
SIM004   module-global mutable state or counter (the PR 2/3 bug
         class: module/class-level ``itertools.count``, lowercase
         module-level containers, ``global`` statements)
SIM005   iteration over an unordered ``set`` feeding ordered output —
         wrap in ``sorted(...)``
SIM006   swallowed broad exception (bare ``except:`` or
         ``except Exception/BaseException: pass``) — hides
         sim-engine errors
=======  ==============================================================

A rule's :meth:`~Rule.check` receives the parsed module and the raw
source and yields ``(line, col, message)`` triples; the engine in
:mod:`repro.analysis.simlint` attaches paths, applies inline
suppressions and compares against the baseline.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

RawFinding = Tuple[int, int, str]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Rule:
    """Base class: subclasses register themselves in :data:`RULES`."""

    code: str = ""
    summary: str = ""
    #: ``module`` rules run per file inside :func:`lint_source`;
    #: ``project`` rules need the whole import graph and are driven by
    #: :mod:`repro.analysis.simflow`.
    scope: str = "module"

    def check(self, tree: ast.Module, source: str) -> Iterator[RawFinding]:
        raise NotImplementedError


RULES: Dict[str, Rule] = {}


def register(cls: type) -> type:
    RULES[cls.code] = cls()
    return cls


@register
class WallClockRule(Rule):
    """SIM001: host wall-clock reads inside simulation code.

    Simulated components must take time from ``env.now``; a
    ``time.time()`` or ``datetime.now()`` call couples results to the
    machine running them.  Host-side *measurement* code (benchmark
    timers) suppresses the rule inline, keeping the exception visible.
    """

    code = "SIM001"
    summary = "wall-clock call in simulation code (use env.now)"

    _CALLS = {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns", "time.sleep",
    }
    #: (second-to-last, last) dotted segments for datetime-style calls,
    #: so both ``datetime.now()`` and ``datetime.datetime.now()`` match.
    _SUFFIXES = {("datetime", "now"), ("datetime", "utcnow"),
                 ("datetime", "today"), ("date", "today")}

    def check(self, tree: ast.Module, source: str) -> Iterator[RawFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if name in self._CALLS or (
                    len(parts) >= 2 and tuple(parts[-2:]) in self._SUFFIXES):
                yield (node.lineno, node.col_offset,
                       f"wall-clock call {name}() in simulation code; "
                       "simulated time must come from env.now")


@register
class GlobalRngRule(Rule):
    """SIM002: draws from process-global RNG state.

    ``random.*`` and the legacy ``numpy.random.*`` module functions
    share hidden global state: any new caller perturbs every later
    draw, and unseeded use differs run to run.  Components must draw
    from named, seeded ``repro.sim.rng`` streams (or a local
    ``np.random.default_rng(seed)``).
    """

    code = "SIM002"
    summary = "global/unseeded RNG (use repro.sim.rng streams)"

    _RANDOM_FUNCS = {
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "sample", "shuffle", "seed", "getrandbits", "randbytes", "gauss",
        "normalvariate", "expovariate", "betavariate", "triangular",
        "vonmisesvariate", "paretovariate", "weibullvariate", "getstate",
        "setstate",
    }
    #: numpy.random attributes that construct *local* seeded generators
    #: rather than touching the module-global state.
    _NUMPY_OK = {"default_rng", "Generator", "SeedSequence", "PCG64",
                 "Philox", "MT19937", "SFC64", "BitGenerator"}

    def check(self, tree: ast.Module, source: str) -> Iterator[RawFinding]:
        # Names imported straight out of the stdlib random module
        # (``from random import shuffle``) are flagged at call sites.
        from_random: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    from_random.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if len(parts) == 2 and parts[0] == "random":
                if parts[1] in self._RANDOM_FUNCS:
                    yield (node.lineno, node.col_offset,
                           f"{name}() draws from the process-global "
                           "random module; use a seeded repro.sim.rng "
                           "stream")
                elif parts[1] in ("Random", "SystemRandom") and not node.args:
                    yield (node.lineno, node.col_offset,
                           f"unseeded {name}(); pass an explicit seed")
            elif (len(parts) >= 3 and parts[-2] == "random"
                    and parts[0] in ("np", "numpy")
                    and parts[-1] not in self._NUMPY_OK):
                yield (node.lineno, node.col_offset,
                       f"{name}() uses numpy's global RNG state; use "
                       "np.random.default_rng(seed) or a repro.sim.rng "
                       "stream")
            elif len(parts) == 1 and parts[0] in from_random:
                yield (node.lineno, node.col_offset,
                       f"{name}() imported from the random module draws "
                       "from process-global state; use a seeded "
                       "repro.sim.rng stream")


@register
class BuiltinHashRule(Rule):
    """SIM003: builtin ``hash()`` feeding partitioning or ordering.

    ``hash(str)`` is salted per process (PYTHONHASHSEED), so any
    partitioner, bucketing or ordering derived from it differs between
    processes — the exact bug fixed in the MR partitioner and Spark
    bucketing.  Use :func:`repro.hashing.stable_hash`.
    """

    code = "SIM003"
    summary = "builtin hash() is PYTHONHASHSEED-salted (use stable_hash)"

    def check(self, tree: ast.Module, source: str) -> Iterator[RawFinding]:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "hash"):
                yield (node.lineno, node.col_offset,
                       "builtin hash() is salted per process; use "
                       "repro.hashing.stable_hash for partitioning "
                       "and ordering")


@register
class ModuleGlobalStateRule(Rule):
    """SIM004: module-global mutable state and counters.

    A module-level (or class-level) ``itertools.count`` numbers
    entities by *process history*, not by session — the RDD-id bug
    fixed in PR 3.  Lowercase module-level containers invite the same
    cross-cell leakage, and ``global`` rebinding is the general form.
    SCREAMING_CASE module constants (lookup tables, registries frozen
    after import) are accepted by convention.
    """

    code = "SIM004"
    summary = "module-global mutable state/counter (scope to the session)"

    _MUTABLE_CALLS = {"list", "dict", "set", "deque", "defaultdict",
                      "Counter", "OrderedDict", "bytearray"}

    @staticmethod
    def _is_counter(value: ast.AST) -> bool:
        if not isinstance(value, ast.Call):
            return False
        name = dotted_name(value.func)
        return name in ("itertools.count", "count")

    def _mutable(self, value: ast.AST) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            return name is not None and \
                name.split(".")[-1] in self._MUTABLE_CALLS
        return False

    @staticmethod
    def _assign_targets(stmt: ast.stmt) -> List[ast.expr]:
        if isinstance(stmt, ast.Assign):
            return stmt.targets
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            return [stmt.target]
        return []

    def check(self, tree: ast.Module, source: str) -> Iterator[RawFinding]:
        # Module-level assignments.
        for stmt in tree.body:
            for target in self._assign_targets(stmt):
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                value = stmt.value  # type: ignore[union-attr]
                if self._is_counter(value):
                    yield (stmt.lineno, stmt.col_offset,
                           f"module-global counter {name!r}: numbering "
                           "follows process history; scope it to the "
                           "session (Session.next_uid)")
                elif (self._mutable(value)
                        and name != name.upper()
                        and not name.startswith("__")):
                    yield (stmt.lineno, stmt.col_offset,
                           f"module-level mutable state {name!r}: shared "
                           "across cells in one process; scope it to the "
                           "session or freeze it as a SCREAMING_CASE "
                           "constant")
        # Class-level counters (still process-global: shared by every
        # instance in the process, like the old Session._seq).
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    for target in self._assign_targets(stmt):
                        if isinstance(target, ast.Name) and \
                                self._is_counter(stmt.value):  # type: ignore[union-attr]
                            yield (stmt.lineno, stmt.col_offset,
                                   f"class-level counter "
                                   f"{node.name}.{target.id}: shared by "
                                   "every instance in the process; move "
                                   "it into __init__ or the session")
            elif isinstance(node, ast.Global):
                yield (node.lineno, node.col_offset,
                       "global statement rebinds module state at "
                       "runtime; pass state explicitly")


@register
class UnorderedIterationRule(Rule):
    """SIM005: iterating an unordered ``set`` into ordered output.

    Set iteration order depends on insertion history and hash salting;
    a ``for`` loop (or comprehension) over a set that feeds scheduling,
    placement or serialized output is a reproducibility hazard.  Wrap
    the set in ``sorted(...)``.  (Dict iteration is insertion-ordered
    and fine.)
    """

    code = "SIM005"
    summary = "iteration over an unordered set (wrap in sorted())"

    #: Order-preserving wrappers unwrapped one level before the test,
    #: so ``enumerate(set(...))`` is still caught.
    _TRANSPARENT = {"enumerate", "list", "tuple", "iter", "reversed"}

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
            if node.func.id in self._TRANSPARENT and node.args:
                return self._is_set_expr(node.args[0])
        return False

    def check(self, tree: ast.Module, source: str) -> Iterator[RawFinding]:
        iters: List[ast.expr] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if self._is_set_expr(it):
                yield (it.lineno, it.col_offset,
                       "iterating an unordered set; wrap it in sorted() "
                       "before it feeds ordered output")


@register
class SwallowedExceptionRule(Rule):
    """SIM006: broad exception handlers that discard the error.

    A bare ``except:`` (any body) or an ``except Exception/
    BaseException: pass`` swallows :class:`SimulationError` and
    invariant violations along with whatever it meant to ignore,
    turning a loud kernel crash into silent state corruption.  Catch
    the specific exception, or record the cause.
    """

    code = "SIM006"
    summary = "bare/broad except swallowing sim-engine errors"

    _BROAD = {"Exception", "BaseException"}

    def _broad_names(self, etype: Optional[ast.expr]) -> bool:
        if isinstance(etype, ast.Name):
            return etype.id in self._BROAD
        if isinstance(etype, ast.Tuple):
            return any(self._broad_names(e) for e in etype.elts)
        return False

    def check(self, tree: ast.Module, source: str) -> Iterator[RawFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield (node.lineno, node.col_offset,
                       "bare except: catches SimulationError and "
                       "KeyboardInterrupt alike; name the exception")
                continue
            body_is_pass = all(isinstance(s, ast.Pass) for s in node.body)
            if body_is_pass and self._broad_names(node.type):
                yield (node.lineno, node.col_offset,
                       "except Exception: pass swallows sim-engine "
                       "errors; catch the specific exception or record "
                       "the cause")


# --------------------------------------------------------- project rules
class ProjectRule(Rule):
    """A rule that needs the whole import graph.

    The per-module :meth:`check` is a registered no-op: findings for
    these codes come from the cross-module pass
    (:func:`repro.analysis.simflow.analyze_paths`), which attaches to
    the same :data:`RULES` codes so suppressions, baselines and
    ``--list-rules`` treat both families uniformly.
    """

    scope = "project"

    def check(self, tree: ast.Module, source: str) -> Iterator[RawFinding]:
        return iter(())


@register
class TaintedScheduleRule(ProjectRule):
    """SIM101: a nondeterministic value reaches an event-schedule sink.

    Taint from wall-clock reads, global-RNG draws, salted ``hash()``,
    process-environment reads or materialized set ordering flowing —
    possibly across functions and modules — into ``env.timeout``
    delays, ``_schedule`` calls, or yielded schedule delays.
    """

    code = "SIM101"
    summary = "nondeterministic value reaches an event-schedule sink"


@register
class TaintedDigestRule(ProjectRule):
    """SIM102: a nondeterministic value reaches a digest input.

    Anything hashed by ``stable_hash``/``hashlib`` becomes part of the
    byte-identity contract; tainted inputs silently fork digests
    between runs and processes.
    """

    code = "SIM102"
    summary = "nondeterministic value reaches a digest input"


@register
class TaintedAggregateRule(ProjectRule):
    """SIM103: a nondeterministic value reaches a serialized aggregate.

    ``json.dumps`` payloads in sweep rows and reports must be
    seed-deterministic; host-side metadata stays out of digested
    aggregates (or is suppressed where it is deliberate reporting).
    """

    code = "SIM103"
    summary = "nondeterministic value reaches a serialized aggregate row"


@register
class TaintedTelemetryRule(ProjectRule):
    """SIM104: a nondeterministic value reaches a telemetry metric.

    Metric labels and observed samples are replay-compared across
    runs; tainted label values shard series nondeterministically.
    """

    code = "SIM104"
    summary = "nondeterministic value reaches a telemetry label/sample"
