"""simflow: cross-module, flow-sensitive determinism taint analysis.

simlint's SIM001-006 flag nondeterminism *at the expression that
produces it*.  That is the wrong place for two reasons: a wall-clock
read that never leaves host-side reporting is harmless (and gets an
inline suppression), while a wall-clock value that quietly crosses a
function or module boundary and lands in a digest, an event-schedule
delay or a canonical aggregate breaks byte-identical figures — and no
single-module rule can see it travel.  simflow closes that gap with a
classic taint analysis over the :class:`~repro.analysis.project.Project`
model:

**Sources** (taint enters):
  wall-clock reads (``time.time``/``datetime.now`` family), global-RNG
  draws (``random.*``, ``numpy.random`` module state), salted builtin
  ``hash()``, process-environment reads (``os.environ``, ``os.getenv``,
  ``os.urandom``, ``os.getpid``, ``uuid.uuid4``), and unordered
  ``set`` contents materialized into a sequence (``list(s)``,
  ``iter(s)``, ``s.pop()``).

**Propagation**: assignments (including tuple unpacking, ``self``
attributes and module globals), arithmetic/containers/f-strings,
returns, and calls — project-internal callees get *summaries*
(concrete tags returned, parameter passthrough, parameters that reach
sinks) computed to a fixed point, so taint follows values across
modules; ``sorted``/``sum``/``len``-style order-insensitive consumers
launder the ``unordered`` tag.

**Sinks** (a finding fires only here — that is what makes the family
high-signal):
  ======  =========================================================
  SIM101  event-schedule inputs: ``env.timeout(delay)``,
          ``_schedule(...)``, ``yield <tainted>``
  SIM102  digest inputs: ``stable_hash``/``hashlib`` constructors,
          ``<digest>.update``
  SIM103  serialized aggregate rows: ``json.dumps`` payloads
  SIM104  telemetry: metric labels and ``observe``/``inc``/``set``
          samples
  ======  =========================================================

Findings anchor at the sink's call site; the message names the taint
kind and its source location (possibly in another module).  Inline
``# simlint: disable=SIM10x`` suppressions and the committed baseline
apply exactly as for the syntactic rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.project import (
    FunctionInfo,
    ModuleInfo,
    Project,
)
from repro.analysis.rules import dotted_name
from repro.analysis.simlint import Finding, suppressions

# ------------------------------------------------------------------ sources
#: Wall-clock call names (mirrors SIM001, minus sleep: sleeping is not
#: a *value* that can flow anywhere).
WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
}
WALL_CLOCK_SUFFIXES = {("datetime", "now"), ("datetime", "utcnow"),
                       ("datetime", "today"), ("date", "today")}

#: random-module functions whose results carry global-RNG taint.
RNG_FUNCS = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "sample", "getrandbits", "randbytes", "gauss", "normalvariate",
    "expovariate", "betavariate", "triangular", "vonmisesvariate",
    "paretovariate", "weibullvariate",
}

#: process-environment reads.
ENV_CALLS = {"os.getenv", "os.urandom", "os.getpid", "os.getppid",
             "uuid.uuid4", "uuid.uuid1", "socket.gethostname",
             "platform.node"}

#: Digest-construction callables (sink *and* producer of digest-kind
#: objects for ``.update`` tracking).
DIGEST_FUNCS = {"stable_hash", "sha256", "sha1", "sha384", "sha512",
                "md5", "blake2b", "blake2s", "crc32"}

#: Order-insensitive consumers: drop the ``unordered`` tag, keep others.
ORDER_LAUNDER = {"sorted", "sum", "len", "min", "max", "any", "all",
                 "frozenset", "set"}

#: Identity-ish builtins: result carries the argument's taint.
PASSTHROUGH_BUILTINS = {"int", "float", "str", "repr", "abs", "round",
                        "bool", "bytes", "format"}

#: Sequence builders that materialize unordered contents into order.
MATERIALIZERS = {"list", "tuple", "iter", "next", "enumerate"}

#: kind -> human description used in messages.
KIND_TEXT = {
    "wall-clock": "wall-clock value",
    "global-rng": "global-RNG value",
    "salted-hash": "salted hash() value",
    "process-env": "process-environment value",
    "unordered": "unordered-set ordering",
}

#: Taint tag keys are either a concrete kind (str) or ``("param", i)``.
Tag = object
Taint = Dict[Tag, str]


@dataclass
class Summary:
    """Interprocedural facts about one function."""

    #: concrete tags (kind -> origin) every call returns.
    returns: Taint = field(default_factory=dict)
    #: parameter indices whose taint flows to the return value.
    passthrough: Set[int] = field(default_factory=set)
    #: (param index, rule code) -> sink description reached.
    sink_params: Dict[Tuple[int, str], str] = field(default_factory=dict)

    def signature(self) -> Tuple:
        return (tuple(sorted(self.returns)),
                tuple(sorted(self.passthrough)),
                tuple(sorted(self.sink_params)))


class FlowAnalysis:
    """One whole-project taint run (fixpoint + reporting pass)."""

    MAX_PASSES = 12

    def __init__(self, project: Project):
        self.project = project
        self.summaries: Dict[str, Summary] = {}
        #: class qualname -> attr -> concrete taint.
        self.class_attrs: Dict[str, Dict[str, Taint]] = {}
        #: module name -> module-level name -> concrete taint.
        self.module_globals: Dict[str, Dict[str, Taint]] = {}
        self.findings: List[Finding] = []
        self._seen: Set[Tuple] = set()
        self._collect = False

    # ------------------------------------------------------------- driving
    def run(self) -> List[Finding]:
        for _ in range(self.MAX_PASSES):
            before = self._state_signature()
            self._pass()
            if self._state_signature() == before:
                break
        self._collect = True
        self._pass()
        out: List[Finding] = []
        for finding in sorted(set(self.findings)):
            module = self._module_for(finding.path)
            if module is not None:
                codes = suppressions(module.source).get(finding.line, False)
                if codes is None or (codes and finding.code in codes):
                    continue
            out.append(finding)
        return out

    def _module_for(self, rel_path: str) -> Optional[ModuleInfo]:
        for module in self.project.modules.values():
            if module.rel_path == rel_path:
                return module
        return None

    def _state_signature(self) -> Tuple:
        return (
            tuple(sorted((q, s.signature())
                         for q, s in self.summaries.items())),
            tuple(sorted((c, a, tuple(sorted(t)))
                         for c, attrs in self.class_attrs.items()
                         for a, t in attrs.items())),
            tuple(sorted((m, n, tuple(sorted(t)))
                         for m, names in self.module_globals.items()
                         for n, t in names.items())),
        )

    def _pass(self) -> None:
        for name in sorted(self.project.modules):
            module = self.project.modules[name]
            # Module-level statements first: they seed module globals.
            mod_visitor = _FunctionFlow(self, module, None)
            mod_visitor.exec_body(module.tree.body)
            self.module_globals.setdefault(name, {}).update(
                {k: v for k, v in mod_visitor.locals.items() if v})
            for qual in sorted(module.functions):
                info = module.functions[qual]
                self._analyze_function(info)

    def _analyze_function(self, info: FunctionInfo) -> None:
        visitor = _FunctionFlow(self, info.module, info)
        visitor.exec_body(info.node.body)
        summary = self.summaries.setdefault(info.qualname, Summary())
        for tag, origin in visitor.returned.items():
            if isinstance(tag, tuple) and tag and tag[0] == "param":
                summary.passthrough.add(tag[1])
            else:
                summary.returns.setdefault(tag, origin)

    # ----------------------------------------------------------- reporting
    def report(self, module: ModuleInfo, node: ast.AST, code: str,
               kind: str, origin: str, sink: str) -> None:
        if not self._collect:
            return
        text = KIND_TEXT.get(kind, kind)
        message = (f"{text} (from {origin}) reaches {sink}; "
                   f"{_REMEDY[code]}")
        key = (module.rel_path, node.lineno, node.col_offset, code,
               message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(Finding(
            path=module.rel_path, line=node.lineno,
            col=node.col_offset, code=code, message=message))


_REMEDY = {
    "SIM101": "simulated schedules must derive from env.now and "
              "seeded streams",
    "SIM102": "digests must only hash seed-deterministic values",
    "SIM103": "aggregate rows must be seed-deterministic (keep host "
              "metadata out of digested payloads)",
    "SIM104": "metric labels/samples must be deterministic to keep "
              "telemetry replayable",
}


class _FunctionFlow:
    """Flow-sensitive walk of one function body (or module body)."""

    def __init__(self, analysis: FlowAnalysis, module: ModuleInfo,
                 info: Optional[FunctionInfo]):
        self.analysis = analysis
        self.project = analysis.project
        self.module = module
        self.info = info
        self.locals: Dict[str, Taint] = {}
        #: var -> semantic kind ("set" | "digest" | "metric")
        self.kinds: Dict[str, str] = {}
        self.returned: Taint = {}
        if info is not None:
            for i, name in enumerate(info.params):
                self.locals[name] = {("param", i): name}

    # ------------------------------------------------------------ helpers
    def _class_attr_taint(self) -> Taint:
        if self.info is None or self.info.class_name is None:
            return {}
        qual = f"{self.module.name}.{self.info.class_name}"
        return self.analysis.class_attrs.setdefault(qual, {})

    def _origin(self, node: ast.AST, what: str) -> str:
        return f"{what} at {self.module.rel_path}:{node.lineno}"

    @staticmethod
    def _concrete(taint: Taint) -> Taint:
        return {t: o for t, o in taint.items() if isinstance(t, str)}

    @staticmethod
    def _merge(into: Taint, *others: Taint) -> Taint:
        for other in others:
            for tag, origin in other.items():
                into.setdefault(tag, origin)
        return into

    # ------------------------------------------------------- statements
    def exec_body(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = getattr(stmt, "value", None)
            if value is None:
                return
            taint = self.eval(value)
            kind = self._value_kind(value)
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            else:
                targets = [stmt.target]
            for target in targets:
                self._assign(target, taint, kind,
                             aug=isinstance(stmt, ast.AugAssign))
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._merge(self.returned, self.eval(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, (ast.If,)):
            self.eval(stmt.test)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            taint = self.eval(stmt.iter)
            self._assign(stmt.target, taint, None)
            # Two passes over loop bodies propagate loop-carried taint.
            self.exec_body(stmt.body)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self.exec_body(stmt.body)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, taint, None)
            self.exec_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_body(stmt.body)
            for handler in stmt.handlers:
                self.exec_body(handler.body)
            self.exec_body(stmt.orelse)
            self.exec_body(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.locals.pop(target.id, None)
        elif isinstance(stmt, (ast.Assert,)):
            self.eval(stmt.test)
        # ClassDef/FunctionDef/Import/Global/Pass...: no value flow here.

    def _assign(self, target: ast.expr, taint: Taint,
                kind: Optional[str], aug: bool = False) -> None:
        if isinstance(target, ast.Name):
            if aug:
                taint = self._merge(dict(self.locals.get(target.id, {})),
                                    taint)
            self.locals[target.id] = dict(taint)
            if kind is not None:
                self.kinds[target.id] = kind
            elif not aug:
                self.kinds.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, taint, None, aug=aug)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, taint, None, aug=aug)
        elif isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name) and base.id == "self":
                attrs = self._class_attr_taint()
                merged = self._merge(dict(attrs.get(target.attr, {})),
                                     self._concrete(taint))
                if merged:
                    attrs[target.attr] = merged
            elif isinstance(base, ast.Name):
                # Storing into an object taints the holding variable.
                self._merge(self.locals.setdefault(base.id, {}),
                            self._concrete(taint))
        elif isinstance(target, ast.Subscript):
            if isinstance(target.value, ast.Name):
                self._merge(self.locals.setdefault(target.value.id, {}),
                            self._concrete(taint))

    # ------------------------------------------------------ value kinds
    def _value_kind(self, node: ast.expr) -> Optional[str]:
        """Semantic kind of a value: set / digest / metric handles."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is None:
                return None
            last = name.split(".")[-1]
            if last in ("set", "frozenset"):
                return "set"
            if last in DIGEST_FUNCS and last != "stable_hash" \
                    and last != "crc32":
                return "digest"
            if isinstance(node.func, ast.Attribute) and \
                    last in ("counter", "gauge", "histogram"):
                return "metric"
        if isinstance(node, ast.Name):
            return self.kinds.get(node.id)
        return None

    def _is_set_expr(self, node: ast.expr) -> bool:
        return self._value_kind(node) == "set"

    # ------------------------------------------------------- expressions
    def eval(self, node: ast.expr) -> Taint:
        if isinstance(node, ast.Name):
            taint = self.locals.get(node.id)
            if taint is not None:
                return dict(taint)
            own = self.analysis.module_globals.get(self.module.name, {})
            if node.id in own:
                return dict(own[node.id])
            target = self.module.imports.get(node.id)
            if target is not None and "." in target:
                mod, _, sym = target.rpartition(".")
                other = self.analysis.module_globals.get(mod, {})
                if sym in other:
                    return dict(other[sym])
            return {}
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id == "self":
                attrs = self._class_attr_taint()
                return dict(attrs.get(node.attr, {}))
            name = dotted_name(node)
            if name in ("os.environ",):
                return {"process-env": self._origin(node, "os.environ")}
            return self.eval(base)
        if isinstance(node, ast.Subscript):
            return self._merge(self.eval(node.value),
                               self.eval(node.slice))
        if isinstance(node, ast.BinOp):
            return self._merge(self.eval(node.left), self.eval(node.right))
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.BoolOp):
            out: Taint = {}
            for value in node.values:
                self._merge(out, self.eval(value))
            return out
        if isinstance(node, ast.Compare):
            out = self.eval(node.left)
            for comp in node.comparators:
                self._merge(out, self.eval(comp))
            return out
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return self._merge(self.eval(node.body),
                               self.eval(node.orelse))
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            out = {}
            for elt in node.elts:
                self._merge(out, self.eval(elt))
            return out
        if isinstance(node, ast.Dict):
            out = {}
            for key in node.keys:
                if key is not None:
                    self._merge(out, self.eval(key))
            for value in node.values:
                self._merge(out, self.eval(value))
            return out
        if isinstance(node, (ast.ListComp, ast.SetComp,
                             ast.GeneratorExp)):
            return self._eval_comp(node, [node.elt])
        if isinstance(node, ast.DictComp):
            return self._eval_comp(node, [node.key, node.value])
        if isinstance(node, ast.JoinedStr):
            out = {}
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self._merge(out, self.eval(value.value))
            return out
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value)
        if isinstance(node, ast.NamedExpr):
            taint = self.eval(node.value)
            self._assign(node.target, taint, self._value_kind(node.value))
            return dict(taint)
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.Await):
            return self.eval(node.value)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            value = node.value
            if value is not None:
                taint = self.eval(value)
                # ``yield 1.0`` schedules a timeout: a tainted yielded
                # *value* (not an event from a checked call) is a
                # schedule sink.
                if not isinstance(value, ast.Call):
                    self._sink(node, taint, "SIM101",
                               "a yielded schedule delay")
            return {}
        if isinstance(node, ast.Lambda):
            return {}
        return {}

    def _eval_comp(self, node: ast.expr, elements: List[ast.expr]) -> Taint:
        out: Taint = {}
        for gen in node.generators:
            taint = self.eval(gen.iter)
            self._assign(gen.target, taint, None)
            for cond in gen.ifs:
                self.eval(cond)
        for element in elements:
            self._merge(out, self.eval(element))
        return out

    # -------------------------------------------------------------- calls
    def _eval_call(self, node: ast.Call) -> Taint:
        name = dotted_name(node.func)
        arg_taints = [self.eval(arg) for arg in node.args]
        kw_taints = {kw.arg: self.eval(kw.value) for kw in node.keywords}
        receiver: Taint = {}
        receiver_kind = None
        if isinstance(node.func, ast.Attribute):
            receiver = self.eval(node.func.value)
            if isinstance(node.func.value, ast.Name):
                receiver_kind = self.kinds.get(node.func.value.id)

        source = self._source_taint(node, name)
        if source is not None:
            return source

        self._check_sinks(node, name, arg_taints, kw_taints,
                          receiver_kind)

        # Project-internal callee: use its summary.
        info = self._resolve_callee(node, name)
        if info is not None:
            return self._apply_summary(node, info, arg_taints, kw_taints)

        last = name.split(".")[-1] if name else ""
        merged: Taint = dict(receiver)
        for taint in arg_taints:
            self._merge(merged, taint)
        for taint in kw_taints.values():
            self._merge(merged, taint)
        if last in ORDER_LAUNDER:
            merged.pop("unordered", None)
            return merged
        if last in MATERIALIZERS:
            # Materializing unordered contents into a sequence is where
            # set ordering becomes data.
            if any(self._is_set_expr(arg) for arg in node.args):
                merged["unordered"] = self._origin(
                    node, f"{last}() over a set")
            return merged
        if last == "pop" and receiver_kind == "set":
            merged["unordered"] = self._origin(node, "set.pop()")
        return merged

    def _source_taint(self, node: ast.Call,
                      name: Optional[str]) -> Optional[Taint]:
        if name is None:
            return None
        parts = name.split(".")
        if name in WALL_CLOCK_CALLS or (
                len(parts) >= 2 and
                tuple(parts[-2:]) in WALL_CLOCK_SUFFIXES):
            return {"wall-clock": self._origin(node, f"{name}()")}
        if len(parts) == 2 and parts[0] == "random" and \
                parts[1] in RNG_FUNCS:
            return {"global-rng": self._origin(node, f"{name}()")}
        if len(parts) >= 3 and parts[-2] == "random" and \
                parts[0] in ("np", "numpy"):
            return {"global-rng": self._origin(node, f"{name}()")}
        if name == "hash":
            taint = {"salted-hash": self._origin(node, "hash()")}
            for arg in node.args:
                self._merge(taint, self.eval(arg))
            return taint
        if name in ENV_CALLS or name in ("os.environ.get",):
            return {"process-env": self._origin(node, f"{name}()")}
        return None

    def _check_sinks(self, node: ast.Call, name: Optional[str],
                     arg_taints: List[Taint],
                     kw_taints: Dict[Optional[str], Taint],
                     receiver_kind: Optional[str]) -> None:
        last = name.split(".")[-1] if name else ""
        is_attr = isinstance(node.func, ast.Attribute)

        def fire(code: str, sink: str, taints: Iterable[Taint]) -> None:
            for taint in taints:
                self._sink(node, taint, code, sink)

        if is_attr and last == "timeout" and arg_taints:
            fire("SIM101", "an event-schedule delay (timeout)",
                 arg_taints[:1])
        elif last == "_schedule":
            fire("SIM101", "the event-schedule queue (_schedule)",
                 list(arg_taints) + list(kw_taints.values()))
        elif last in DIGEST_FUNCS:
            fire("SIM102", f"a digest input ({last})",
                 list(arg_taints) + list(kw_taints.values()))
        elif is_attr and last == "update" and receiver_kind == "digest":
            fire("SIM102", "a digest input (update)", arg_taints)
        elif name == "json.dumps" or last == "canonical_json":
            fire("SIM103", "a serialized aggregate row (json.dumps)",
                 list(arg_taints) + list(kw_taints.values()))
        elif is_attr and last in ("counter", "gauge", "histogram"):
            labelled = [t for key, t in kw_taints.items()
                        if key not in ("bounds", "window_seconds",
                                       "sample_resolution")]
            fire("SIM104", f"a telemetry metric label ({last})",
                 list(arg_taints) + labelled)
        elif is_attr and last == "observe":
            fire("SIM104", "a telemetry histogram sample (observe)",
                 arg_taints[:1])
        elif is_attr and last in ("inc", "set") and \
                receiver_kind == "metric":
            fire("SIM104", f"a telemetry metric sample ({last})",
                 arg_taints[:1])

    def _sink(self, node: ast.AST, taint: Taint, code: str,
              sink: str) -> None:
        for tag, origin in sorted(self._concrete(taint).items()):
            self.analysis.report(self.module, node, code, tag, origin,
                                 sink)
        if self.info is not None:
            summary = self.analysis.summaries.setdefault(
                self.info.qualname, Summary())
            for tag in taint:
                if isinstance(tag, tuple) and tag and tag[0] == "param":
                    summary.sink_params.setdefault((tag[1], code), sink)

    def _resolve_callee(self, node: ast.Call,
                        name: Optional[str]) -> Optional[FunctionInfo]:
        if name is None:
            return None
        if name.startswith("self.") and self.info is not None and \
                self.info.class_name is not None:
            cls = self.module.classes.get(self.info.class_name)
            if cls is not None:
                return self.project.method(cls, name[len("self."):])
            return None
        return self.project.resolve_function(self.module, name)

    def _apply_summary(self, node: ast.Call, info: FunctionInfo,
                       arg_taints: List[Taint],
                       kw_taints: Dict[Optional[str], Taint]) -> Taint:
        summary = self.analysis.summaries.setdefault(
            info.qualname, Summary())
        params = info.params

        def taint_of_param(i: int) -> Taint:
            if i < len(arg_taints):
                return arg_taints[i]
            if i < len(params) and params[i] in kw_taints:
                return kw_taints[params[i]]
            return {}

        # Tainted arguments feeding a parameter that reaches a sink
        # inside the callee: report at this call site (this is the
        # cross-module case SIM001-006 cannot see).
        own = self.analysis.summaries.setdefault(
            self.info.qualname, Summary()) if self.info else None
        short = info.qualname.rsplit(".", 1)[-1]
        for (i, code), sink in sorted(summary.sink_params.items()):
            taint = taint_of_param(i)
            for tag, origin in sorted(self._concrete(taint).items()):
                self.analysis.report(
                    self.module, node, code, tag, origin,
                    f"{sink} via {short}()")
            if own is not None:
                for tag in taint:
                    if isinstance(tag, tuple) and tag[0] == "param":
                        own.sink_params.setdefault(
                            (tag[1], code), f"{sink} via {short}()")

        result: Taint = dict(summary.returns)
        for i in summary.passthrough:
            self._merge(result, taint_of_param(i))
        return result


# ---------------------------------------------------------------- frontend
def analyze_project(project: Project) -> List[Finding]:
    """Run the flow analysis over a built project; sorted findings."""
    return FlowAnalysis(project).run()


def analyze_paths(paths: Iterable[Path | str]) -> List[Finding]:
    """Flow-analyze every module under ``paths``."""
    return analyze_project(Project.load(paths))
