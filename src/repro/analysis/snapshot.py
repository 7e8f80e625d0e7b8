"""Snapshot-safety audit: which state can a checkpoint serialize?

The roadmap's crash-safe persistent state (resumable sweeps with
byte-identical replay) needs a *contract*: exactly which attributes of
the live object graph are snapshotable, and which are runtime-only
hazards a checkpoint layer must reconstruct instead of serialize.
This module derives that contract statically.  Starting from the root
classes (:class:`~repro.core.session.Session`,
:class:`~repro.sim.engine.Environment`,
:class:`~repro.service.service.PilotService`), it walks every project
class reachable through attribute assignments and classifies each
attribute:

  ======  ==========================================================
  SIM111  open file handle stored as state (``open(...)``/.open())
  SIM112  generator/coroutine stored as state (live frames cannot be
          serialized; a checkpoint must replay, not pickle, them)
  SIM113  process/thread executor handle stored as state
  SIM114  lambda or bound method stored as state (unpicklable and
          identity-coupled to the live process)
  SIM115  module-global backref stored as state (snapshotting it
          forks shared state)
  ======  ==========================================================

Everything else is ``safe`` (constants and project-class composites,
which recurse) or ``opaque`` (unresolvable statically — reviewed, not
failed).  The result is a committed, sorted ``state-manifest.json``:
the checked contract the checkpoint layer serializes against.
``python -m repro audit-state --check`` fails when the tree drifts
from the committed manifest or a new hazard appears that is neither
suppressed inline nor in the shared baseline ledger.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.project import (
    AnalysisCache,
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
)
from repro.analysis.rules import dotted_name
from repro.analysis.simlint import Finding, suppressions

#: The state roots of the stack: everything a checkpoint would walk.
DEFAULT_ROOTS = (
    "repro.core.session.Session",
    "repro.sim.engine.Environment",
    "repro.service.service.PilotService",
)

#: Executor/thread handle type names (last dotted segment).
EXECUTOR_NAMES = {"ProcessPoolExecutor", "ThreadPoolExecutor",
                  "Executor", "Thread", "Timer", "Pool", "ThreadPool"}

#: Annotation names that mean "live frame stored as state".
GENERATOR_ANNOTATIONS = {"Generator", "Iterator", "AsyncGenerator",
                         "Coroutine", "AsyncIterator"}

#: Mutable-container constructors for the module-global heuristic.
MUTABLE_CALLS = {"list", "dict", "set", "deque", "defaultdict",
                 "Counter", "OrderedDict", "bytearray"}

#: Generic-container annotation heads whose element types are
#: reachability edges (``list[tuple[float, Event]]`` reaches ``Event``).
CONTAINER_ANNOTATIONS = {
    "list", "List", "dict", "Dict", "set", "Set", "tuple", "Tuple",
    "frozenset", "FrozenSet", "deque", "Deque", "Sequence", "Mapping",
    "MutableMapping", "MutableSequence", "DefaultDict", "OrderedDict",
}

_HAZARD = "hazard"
_SAFE = "safe"
_OPAQUE = "opaque"


@dataclass
class Classified:
    """Outcome of classifying one assigned value."""

    classification: str                  # safe | hazard | opaque
    rule: Optional[str] = None           # SIM11x when hazard
    type: Optional[str] = None           # resolved type, if any
    detail: str = ""
    edges: List[ClassInfo] = field(default_factory=list)


@dataclass(frozen=True)
class ManifestEntry:
    """One attribute's classification in the committed contract."""

    class_name: str
    attr: str
    classification: str
    rule: Optional[str]
    type: Optional[str]
    path: str

    def to_dict(self) -> Dict[str, object]:
        return {"class": self.class_name, "attr": self.attr,
                "classification": self.classification,
                "rule": self.rule, "type": self.type, "path": self.path}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ManifestEntry":
        return cls(class_name=str(data["class"]), attr=str(data["attr"]),
                   classification=str(data["classification"]),
                   rule=data.get("rule"), type=data.get("type"),
                   path=str(data.get("path", "")))


class SnapshotAuditor:
    """Walk the reachable class graph and classify every attribute."""

    def __init__(self, project: Project,
                 roots: Sequence[str] = DEFAULT_ROOTS):
        self.project = project
        self.roots = tuple(roots)
        self.entries: List[ManifestEntry] = []
        self.findings: List[Finding] = []

    # ------------------------------------------------------------- driving
    def run(self) -> Tuple[List[ManifestEntry], List[Finding]]:
        queue: List[ClassInfo] = []
        seen: set = set()
        for root in self.roots:
            cls = self.project.find_class(root)
            if cls is not None:
                queue.append(cls)
        while queue:
            cls = queue.pop(0)
            if cls.qualname in seen:
                continue
            seen.add(cls.qualname)
            for edge in self._audit_class(cls):
                if edge.qualname not in seen:
                    queue.append(edge)
            # Base classes hold part of the instance state too.
            for base in cls.node.bases:
                base_name = dotted_name(base)
                if base_name is None:
                    continue
                base_cls = self.project.resolve_class(cls.module,
                                                      base_name)
                if base_cls is not None and \
                        base_cls.qualname not in seen:
                    queue.append(base_cls)
        self.entries.sort(key=lambda e: (e.class_name, e.attr))
        self.findings = self._filter_suppressed(sorted(self.findings))
        return self.entries, self.findings

    def _filter_suppressed(self, findings: List[Finding]) -> List[Finding]:
        by_path = {m.rel_path: m for m in self.project.modules.values()}
        out = []
        for finding in findings:
            module = by_path.get(finding.path)
            if module is not None:
                codes = suppressions(module.source).get(
                    finding.line, False)
                if codes is None or (codes and finding.code in codes):
                    continue
            out.append(finding)
        return out

    # -------------------------------------------------------------- class
    def _audit_class(self, cls: ClassInfo) -> List[ClassInfo]:
        module = cls.module
        #: attr -> list of (Classified, lineno, col)
        sites: Dict[str, List[Tuple[Classified, int, int]]] = {}

        def record(attr: str, classified: Classified,
                   node: ast.AST) -> None:
            sites.setdefault(attr, []).append(
                (classified, node.lineno, node.col_offset))

        # Class-level assignments (shared, but still instance-visible
        # state a snapshot would see).
        for stmt in cls.node.body:
            targets, value = _assign_parts(stmt)
            for target in targets:
                if isinstance(target, ast.Name) and value is not None:
                    record(target.id,
                           self._classify(module, value, None), stmt)
        # ``self.x = ...`` in every method.
        prefix = f"{cls.node.name}."
        for qual in sorted(module.functions):
            if not qual.startswith(prefix):
                continue
            func = module.functions[qual]
            for node in ast.walk(func.node):
                targets, value = _assign_parts(node)
                annotation = node.annotation \
                    if isinstance(node, ast.AnnAssign) else None
                for target in targets:
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        continue
                    classified = self._classify(module, value, func) \
                        if value is not None else None
                    if annotation is not None:
                        ann = self._classify_annotation(module,
                                                        annotation)
                        classified = _merge_value_annotation(classified,
                                                             ann)
                    if classified is None:
                        continue
                    record(target.attr, classified, node)

        edges: List[ClassInfo] = []
        for attr in sorted(sites):
            entry, attr_edges, finding = self._combine(
                cls, attr, sites[attr])
            self.entries.append(entry)
            edges.extend(attr_edges)
            if finding is not None:
                self.findings.append(finding)
        return edges

    def _combine(self, cls: ClassInfo, attr: str,
                 classified: List[Tuple[Classified, int, int]]
                 ) -> Tuple[ManifestEntry, List[ClassInfo],
                            Optional[Finding]]:
        edges: List[ClassInfo] = []
        hazard: Optional[Tuple[Classified, int, int]] = None
        typed: Optional[Classified] = None
        any_opaque = False
        for item in classified:
            c = item[0]
            edges.extend(c.edges)
            if c.classification == _HAZARD and hazard is None:
                hazard = item
            elif c.classification == _OPAQUE:
                any_opaque = True
            if c.type is not None and typed is None:
                typed = c
        finding = None
        if hazard is not None:
            c, line, col = hazard
            finding = Finding(
                path=cls.module.rel_path, line=line, col=col,
                code=c.rule or "SIM111",
                message=(f"{cls.qualname}.{attr}: {c.detail} — "
                         "hazardous snapshot state; reconstruct it on "
                         "restore instead of serializing it"))
            entry = ManifestEntry(
                class_name=cls.qualname, attr=attr,
                classification=_HAZARD, rule=c.rule, type=c.type,
                path=cls.module.rel_path)
        elif typed is not None:
            entry = ManifestEntry(
                class_name=cls.qualname, attr=attr,
                classification=_SAFE, rule=None, type=typed.type,
                path=cls.module.rel_path)
        elif any_opaque:
            entry = ManifestEntry(
                class_name=cls.qualname, attr=attr,
                classification=_OPAQUE, rule=None, type=None,
                path=cls.module.rel_path)
        else:
            entry = ManifestEntry(
                class_name=cls.qualname, attr=attr,
                classification=_SAFE, rule=None, type=None,
                path=cls.module.rel_path)
        return entry, edges, finding

    # ------------------------------------------------------ classification
    def _classify(self, module: ModuleInfo, value: ast.expr,
                  func: Optional[FunctionInfo]) -> Classified:
        if isinstance(value, ast.Constant):
            return Classified(_SAFE, type=type(value.value).__name__)
        if isinstance(value, ast.Lambda):
            return Classified(_HAZARD, rule="SIM114", type="lambda",
                              detail="lambda stored as state")
        if isinstance(value, ast.GeneratorExp):
            return Classified(_HAZARD, rule="SIM112", type="generator",
                              detail="generator expression stored as "
                                     "state")
        if isinstance(value, ast.Call):
            return self._classify_call(module, value, func)
        if isinstance(value, ast.Name):
            return self._classify_name(module, value, func)
        if isinstance(value, ast.Attribute):
            return self._classify_attribute(module, value, func)
        if isinstance(value, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
            elements: List[ast.expr] = []
            if isinstance(value, ast.Dict):
                elements = [v for v in value.values if v is not None]
            else:
                elements = list(value.elts)
            merged = Classified(_SAFE, type=type(value).__name__.lower())
            for element in elements:
                sub = self._classify(module, element, func)
                merged.edges.extend(sub.edges)
                if sub.classification == _HAZARD:
                    return Classified(
                        _HAZARD, rule=sub.rule, type=sub.type,
                        detail=f"{sub.detail} in a persisted container",
                        edges=merged.edges)
            return merged
        if isinstance(value, ast.BoolOp):
            merged = Classified(_OPAQUE)
            for operand in value.values:
                sub = self._classify(module, operand, func)
                merged.edges.extend(sub.edges)
                if sub.classification == _HAZARD:
                    return Classified(_HAZARD, rule=sub.rule,
                                      type=sub.type, detail=sub.detail,
                                      edges=merged.edges)
                if sub.type is not None and merged.type is None:
                    merged.classification = _SAFE
                    merged.type = sub.type
            return merged
        if isinstance(value, ast.IfExp):
            a = self._classify(module, value.body, func)
            b = self._classify(module, value.orelse, func)
            for sub in (a, b):
                if sub.classification == _HAZARD:
                    sub.edges.extend(a.edges + b.edges)
                    return sub
            a.edges.extend(b.edges)
            return a
        return Classified(_OPAQUE)

    def _classify_call(self, module: ModuleInfo, value: ast.Call,
                       func: Optional[FunctionInfo]) -> Classified:
        name = dotted_name(value.func)
        if name is None:
            return Classified(_OPAQUE)
        last = name.split(".")[-1]
        # Project classes first: ``Process(...)`` in repro.sim.engine is
        # our own class, not multiprocessing's.
        cls = self._resolve_type(module, name, func)
        if cls is not None:
            return Classified(_SAFE, type=cls.qualname, edges=[cls])
        callee = self._resolve_callable(module, name, func)
        if callee is not None:
            if callee.is_generator:
                return Classified(
                    _HAZARD, rule="SIM112", type="generator",
                    detail=f"live generator from {last}() stored as "
                           "state")
            return Classified(_OPAQUE)
        if last == "open" or name == "open":
            return Classified(_HAZARD, rule="SIM111", type="file",
                              detail="open file handle stored as state")
        if last in EXECUTOR_NAMES:
            return Classified(_HAZARD, rule="SIM113", type=last,
                              detail=f"{last} handle stored as state")
        if last in MUTABLE_CALLS or last in ("OrderedDict",):
            return Classified(_SAFE, type=last)
        return Classified(_OPAQUE)

    def _classify_name(self, module: ModuleInfo, value: ast.Name,
                       func: Optional[FunctionInfo]) -> Classified:
        # A parameter: classify through its annotation.
        if func is not None:
            annotation = _param_annotation(func.node, value.id)
            if annotation is not None:
                return self._classify_annotation(module, annotation)
        # A module-level global: mutable ones are SIM115 backrefs.
        site = _module_level_value(module, value.id)
        if site is not None:
            if _is_mutable_value(site):
                return Classified(
                    _HAZARD, rule="SIM115",
                    type=f"{module.name}.{value.id}",
                    detail=f"module-global {value.id!r} stored as a "
                           "backref")
            return Classified(_SAFE,
                              type=f"{module.name}.{value.id}")
        return Classified(_OPAQUE)

    def _classify_attribute(self, module: ModuleInfo,
                            value: ast.Attribute,
                            func: Optional[FunctionInfo]) -> Classified:
        # ``self.method`` stored as state = a bound method.
        if isinstance(value.value, ast.Name) and \
                value.value.id == "self" and func is not None and \
                func.class_name is not None:
            cls = module.classes.get(func.class_name)
            if cls is not None and \
                    self.project.method(cls, value.attr) is not None:
                return Classified(
                    _HAZARD, rule="SIM114", type="method",
                    detail=f"bound method self.{value.attr} stored as "
                           "state")
            return Classified(_OPAQUE)
        name = dotted_name(value)
        if name is not None:
            cls = self._resolve_type(module, name, func)
            if cls is not None:
                return Classified(_SAFE, type=cls.qualname, edges=[cls])
        return Classified(_OPAQUE)

    def _classify_annotation(self, module: ModuleInfo,
                             annotation: ast.expr) -> Classified:
        annotation = _unwrap_annotation(annotation)
        if annotation is None:
            return Classified(_OPAQUE)
        if isinstance(annotation, ast.Subscript):
            base = dotted_name(annotation.value)
            last = base.split(".")[-1] if base else ""
            if last in CONTAINER_ANNOTATIONS:
                # ``list[tuple[float, Event]]``: the container is safe,
                # but its element types are reachability edges too.
                slc = annotation.slice
                elems = list(slc.elts) if isinstance(slc, ast.Tuple) \
                    else [slc]
                merged = Classified(_SAFE, type=last.lower())
                for elem in elems:
                    sub = self._classify_annotation(module, elem)
                    merged.edges.extend(sub.edges)
                    if sub.classification == _HAZARD:
                        return Classified(
                            _HAZARD, rule=sub.rule, type=sub.type,
                            detail=f"{sub.detail} in a persisted "
                                   "container",
                            edges=merged.edges)
                return merged
            # ``Generator[...]``/``Callable[...]``: classify the base.
            annotation = annotation.value
        name = dotted_name(annotation)
        if name is None:
            return Classified(_OPAQUE)
        last = name.split(".")[-1]
        if last in GENERATOR_ANNOTATIONS:
            return Classified(
                _HAZARD, rule="SIM112", type=last,
                detail=f"live {last.lower()} stored as state")
        if last in EXECUTOR_NAMES:
            return Classified(_HAZARD, rule="SIM113", type=last,
                              detail=f"{last} handle stored as state")
        cls = self.project.resolve_class(module, name)
        if cls is not None:
            return Classified(_SAFE, type=cls.qualname, edges=[cls])
        return Classified(_OPAQUE)

    def _resolve_type(self, module: ModuleInfo, name: str,
                      func: Optional[FunctionInfo]) -> Optional[ClassInfo]:
        if name.startswith("self.") or name == "self":
            return None
        return self.project.resolve_class(module, name)

    def _resolve_callable(self, module: ModuleInfo, name: str,
                          func: Optional[FunctionInfo]
                          ) -> Optional[FunctionInfo]:
        if name.startswith("self.") and func is not None and \
                func.class_name is not None:
            cls = module.classes.get(func.class_name)
            if cls is not None:
                return self.project.method(cls, name[len("self."):])
            return None
        return self.project.resolve_function(module, name)


# ----------------------------------------------------------- AST helpers
def _merge_value_annotation(classified: Optional[Classified],
                            ann: Classified) -> Classified:
    """Combine a value classification with its annotation's.

    ``self.x: Optional[Process] = None`` classifies the *value* as a
    safe ``NoneType`` — the annotation carries the real type, its
    reachability edges and any hazard.
    """
    if classified is None:
        return ann
    if ann.classification == _HAZARD and \
            classified.classification != _HAZARD:
        ann.edges.extend(classified.edges)
        return ann
    classified.edges.extend(ann.edges)
    if classified.classification == _OPAQUE and \
            ann.classification == _SAFE:
        classified.classification = _SAFE
        classified.type = ann.type
    elif ann.type is not None and \
            classified.type in (None, "NoneType"):
        classified.type = ann.type
    return classified


def _assign_parts(node: ast.AST
                  ) -> Tuple[List[ast.expr], Optional[ast.expr]]:
    if isinstance(node, ast.Assign):
        return node.targets, node.value
    if isinstance(node, ast.AnnAssign):
        return [node.target], node.value
    return [], None


def _param_annotation(node: ast.AST, name: str) -> Optional[ast.expr]:
    args = node.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        if arg.arg == name:
            return arg.annotation
    return None


def _unwrap_annotation(node: ast.expr) -> Optional[ast.expr]:
    """Strip Optional[...]/Union[...]/"quoted" layers down to a name."""
    for _ in range(6):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
            continue
        if isinstance(node, ast.Subscript):
            base = dotted_name(node.value)
            if base and base.split(".")[-1] in ("Optional", "Union"):
                inner = node.slice
                if isinstance(inner, ast.Tuple) and inner.elts:
                    node = inner.elts[0]
                else:
                    node = inner
                continue
            return node
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            # ``X | None``: prefer the non-None side.
            left = node.left
            if isinstance(left, ast.Constant) and left.value is None:
                node = node.right
            else:
                node = left
            continue
        return node
    return node


def _module_level_value(module: ModuleInfo,
                        name: str) -> Optional[ast.expr]:
    for stmt in module.tree.body:
        targets, value = _assign_parts(stmt)
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                return value
    return None


def _is_mutable_value(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        return name is not None and \
            name.split(".")[-1] in MUTABLE_CALLS
    return False


# -------------------------------------------------------------- manifest
def manifest_payload(roots: Sequence[str],
                     entries: Sequence[ManifestEntry]) -> Dict[str, object]:
    return {"version": 1, "roots": sorted(roots),
            "entries": [e.to_dict() for e in entries]}


def load_manifest(path: Path | str) -> Optional[Dict[str, object]]:
    path = Path(path)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def save_manifest(path: Path | str, payload: Dict[str, object]) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")


def audit_paths(paths: Iterable[Path | str],
                roots: Sequence[str] = DEFAULT_ROOTS,
                cache_path: Optional[Path | str] = None
                ) -> Tuple[List[ManifestEntry], List[Finding]]:
    """Audit every class reachable from ``roots`` under ``paths``.

    Shares the :class:`~repro.analysis.project.AnalysisCache` with the
    flow pass, so ``lint --flow`` followed by ``audit-state`` builds
    the project model once per tree state.
    """
    project = Project.load(paths)
    digest = project.content_digest() + ":" + ",".join(sorted(roots))
    cache = AnalysisCache(cache_path) if cache_path else None
    if cache is not None:
        payload = cache.get("manifest", digest)
        if payload is not None:
            return ([ManifestEntry.from_dict(e)
                     for e in payload["entries"]],
                    sorted(Finding.from_dict(f)
                           for f in payload["findings"]))
    entries, findings = SnapshotAuditor(project, roots).run()
    if cache is not None:
        cache.put("manifest", digest, {
            "entries": [e.to_dict() for e in entries],
            "findings": [f.to_dict() for f in findings]})
    return entries, findings


# -------------------------------------------------------------------- CLI
def audit_command(paths: Sequence[str],
                  roots: Optional[Sequence[str]] = None,
                  manifest_path: str = "state-manifest.json",
                  baseline_path: str = "simlint-baseline.json",
                  output: str = "text",
                  check: bool = False, update: bool = False,
                  graph_cache: Optional[str] = None) -> int:
    """Drive one snapshot-safety audit; returns the process exit code.

    ``--update-manifest`` rewrites the committed manifest from this
    run.  With ``--check``, exit 1 when (a) the derived manifest
    differs from the committed one — the serialization contract
    drifted — or (b) an unsuppressed hazard finding is not covered by
    the shared baseline ledger (judged only against the SIM11x
    family), or a SIM11x ledger entry went stale.
    """
    from repro.analysis.simlint import (
        Baseline,
        audit_rule_codes,
        format_json,
        format_text,
        resolve_cli_path,
    )

    roots = tuple(roots) if roots else DEFAULT_ROOTS
    paths = [resolve_cli_path(p) for p in paths]
    manifest_path = resolve_cli_path(manifest_path, must_exist=False)
    baseline_path = resolve_cli_path(baseline_path, must_exist=False)
    entries, findings = audit_paths(paths, roots=roots,
                                    cache_path=graph_cache)
    payload = manifest_payload(roots, entries)
    if update:
        save_manifest(manifest_path, payload)
        hazards = sum(1 for e in entries
                      if e.classification == _HAZARD)
        print(f"wrote {len(entries)} attribute(s) "
              f"({hazards} hazard(s)) to {manifest_path}")
        return 0

    baseline = Baseline.load(baseline_path)
    new, stale = baseline.split(findings, codes=audit_rule_codes())
    committed = load_manifest(manifest_path)
    canonical = json.dumps(payload, sort_keys=True)
    matches = committed is not None and \
        json.dumps(committed, sort_keys=True) == canonical

    shown = new if check else findings
    if output == "json":
        print(format_json(shown, stale if check else ()))
    else:
        counts: Dict[str, int] = {}
        for entry in entries:
            counts[entry.classification] = \
                counts.get(entry.classification, 0) + 1
        summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"audited {len(entries)} attribute(s) across "
              f"{len({e.class_name for e in entries})} class(es) "
              f"[{summary}]")
        if shown or (check and stale):
            print(format_text(shown, stale if check else ()))
    if check and (not matches or new or stale):
        # One unified failure: manifest drift and new/stale hazard
        # findings are the same contract violation — the committed
        # manifest doubles as the checkpoint schema (repro.persist
        # embeds its digest in every snapshot), so either way a
        # Session-reachable class changed what a checkpoint must
        # serialize.
        causes = []
        if not matches:
            state = "missing" if committed is None else "out of date"
            causes.append(f"state manifest {manifest_path} is {state}")
        if new or stale:
            causes.append(f"{len(new)} new / {len(stale)} stale "
                          f"snapshot-hazard finding(s)")
        print(f"checkpoint-schema drift: {'; '.join(causes)}. "
              "Run `python -m repro audit-state --update-manifest`, "
              "review the diff, and see README.md 'Crash-safe state & "
              "resume' — existing snapshot stores will refuse to "
              "restore across this change (SchemaDrift).")
        return 1
    return 0
