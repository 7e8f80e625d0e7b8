"""Project model: the import-graph-aware substrate for simflow.

simlint's SIM001-006 rules see one module at a time, so a wall-clock
value that crosses a function or module boundary before reaching a
digest is invisible to them.  The flow rules (SIM10x) need the *whole*
project: which modules exist, what every local name resolves to, and
where each function and class is defined.  This module builds that
model once:

* :class:`ModuleInfo` — one parsed module: AST, import table (local
  name -> fully-dotted target), functions and classes by local
  qualname, inline-suppression map.
* :class:`Project` — the module set plus cross-module resolution
  (:meth:`Project.resolve_function`, :meth:`Project.resolve_class`)
  that follows ``import``/``from``-import chains and one level of
  re-export.
* :func:`repo_root_of` — marker-based repo-root detection
  (``pyproject.toml``/``.git``), so finding paths are repo-root-relative
  POSIX strings and the baseline ledger is cwd-independent.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional

#: Files that mark a repository root, checked in order while walking up.
ROOT_MARKERS = ("pyproject.toml", ".git")


def repo_root_of(path: Path) -> Optional[Path]:
    """The nearest ancestor of ``path`` holding a repo-root marker."""
    path = path.resolve()
    for candidate in (path, *path.parents):
        for marker in ROOT_MARKERS:
            if (candidate / marker).exists():
                return candidate
    return None


def display_base(path: Path) -> Optional[Path]:
    """The directory finding paths are shown relative to.

    Repo-root-relative when a marker is found (the committed-baseline
    contract: ``src/repro/...`` regardless of cwd); ``None`` — show the
    path as given — for markerless trees (scratch fixtures).
    """
    return repo_root_of(path)


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str                 # "repro.core.session.Session.close"
    node: ast.AST                 # FunctionDef | AsyncFunctionDef
    module: "ModuleInfo"
    class_name: Optional[str] = None

    @property
    def params(self) -> List[str]:
        """Positional parameter names, ``self``/``cls`` stripped."""
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if self.class_name and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names


@dataclass
class ClassInfo:
    """One class definition in the project."""

    qualname: str
    node: ast.ClassDef
    module: "ModuleInfo"


@dataclass
class ModuleInfo:
    """One parsed module plus its symbol tables."""

    name: str                     # dotted module name
    path: Path
    rel_path: str                 # display path, POSIX, root-relative
    source: str
    tree: ast.Module
    #: local name -> fully-dotted target ("repro.core.session",
    #: "repro.core.session.Session", "os", ...).  Includes imports made
    #: inside function bodies (lazy imports are idiomatic here).
    imports: Dict[str, str] = field(default_factory=dict)
    #: local qualname ("f", "Cls.m") -> FunctionInfo
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: local class name -> ClassInfo
    classes: Dict[str, ClassInfo] = field(default_factory=dict)

    def index(self) -> None:
        """Build the import/function/class tables from the AST."""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = f"{base}.{alias.name}"
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[stmt.name] = FunctionInfo(
                    qualname=f"{self.name}.{stmt.name}", node=stmt,
                    module=self)
            elif isinstance(stmt, ast.ClassDef):
                self.classes[stmt.name] = ClassInfo(
                    qualname=f"{self.name}.{stmt.name}", node=stmt,
                    module=self)
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        key = f"{stmt.name}.{sub.name}"
                        self.functions[key] = FunctionInfo(
                            qualname=f"{self.name}.{key}", node=sub,
                            module=self, class_name=stmt.name)

    def _resolve_from(self, node: ast.ImportFrom) -> Optional[str]:
        """Dotted base module of a ``from X import ...`` statement."""
        if node.level == 0:
            return node.module
        parts = self.name.split(".")
        # ``from . import x`` in package module a.b.c: level 1 -> a.b
        if node.level > len(parts):
            return None
        base_parts = parts[:len(parts) - node.level]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts) if base_parts else None


class Project:
    """The parsed module set plus cross-module name resolution."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}

    # --------------------------------------------------------------- load
    @classmethod
    def load(cls, paths: Iterable[Path | str]) -> "Project":
        """Parse every ``.py`` file under ``paths`` into one project.

        Dotted module names are derived per scanned path: a directory
        ``src/repro`` yields ``repro.*`` modules, a bare directory of
        modules yields ``<dirname>.*``.
        """
        project = cls()
        for top in paths:
            top = Path(top)
            if top.is_dir():
                files = sorted(p for p in top.rglob("*.py")
                               if "__pycache__" not in p.parts)
                pkg_parent = top.resolve().parent
            elif top.suffix == ".py":
                files = [top]
                pkg_parent = top.resolve().parent
            else:
                raise FileNotFoundError(
                    f"not a python file or directory: {top}")
            base = display_base(top)
            for path in files:
                resolved = path.resolve()
                parts = resolved.relative_to(pkg_parent).with_suffix("")
                name = ".".join(parts.parts)
                if name.endswith(".__init__"):
                    name = name[:-len(".__init__")]
                try:
                    rel = resolved.relative_to(
                        base if base is not None else pkg_parent
                    ).as_posix()
                except ValueError:
                    rel = path.as_posix()
                project._add(name, path, rel)
        return project

    def _add(self, name: str, path: Path, rel_path: str) -> None:
        source = path.read_text()
        module = ModuleInfo(name=name, path=path, rel_path=rel_path,
                            source=source,
                            tree=ast.parse(source, filename=rel_path))
        module.index()
        self.modules[name] = module

    # ---------------------------------------------------------- resolution
    def _resolve_dotted(self, module: ModuleInfo, dotted: str,
                        depth: int = 0) -> Optional[str]:
        """Fully-qualified project target for ``dotted`` used in
        ``module``, following the import table; ``None`` if the name
        does not resolve inside the project."""
        if depth > 8:
            return None
        head, _, rest = dotted.partition(".")
        target = module.imports.get(head)
        if target is None:
            # A module-local definition referenced by bare name.
            if head in module.functions or head in module.classes:
                return f"{module.name}.{dotted}"
            return None
        return f"{target}.{rest}" if rest else target

    def _lookup(self, qualified: str, kind: str, depth: int = 0):
        """Find a function/class by fully-dotted name, following one
        level of re-export per recursion step."""
        if depth > 8:
            return None
        # Longest module prefix wins: "repro.core.session.Session.close"
        parts = qualified.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod_name = ".".join(parts[:cut])
            module = self.modules.get(mod_name)
            if module is None:
                continue
            local = ".".join(parts[cut:])
            table = module.functions if kind == "function" \
                else module.classes
            if local in table:
                return table[local]
            # Re-export: ``from repro.x import f`` in a package
            # __init__ makes "repro.f" mean "repro.x.f".
            head = parts[cut]
            target = module.imports.get(head)
            if target is not None:
                rest = ".".join(parts[cut + 1:])
                full = f"{target}.{rest}" if rest else target
                found = self._lookup(full, kind, depth + 1)
                if found is not None:
                    return found
        return None

    def resolve_function(self, module: ModuleInfo,
                         dotted: str) -> Optional[FunctionInfo]:
        """The project function a dotted call name refers to."""
        if dotted in module.functions:
            return module.functions[dotted]
        qualified = self._resolve_dotted(module, dotted)
        if qualified is None:
            return None
        found = self._lookup(qualified, "function")
        return found if isinstance(found, FunctionInfo) else None

    def resolve_class(self, module: ModuleInfo,
                      dotted: str) -> Optional[ClassInfo]:
        """The project class a dotted name refers to."""
        if dotted in module.classes:
            return module.classes[dotted]
        qualified = self._resolve_dotted(module, dotted)
        if qualified is None:
            return None
        found = self._lookup(qualified, "class")
        return found if isinstance(found, ClassInfo) else None

    def method(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        """A method on ``cls`` (same-module base classes included)."""
        seen = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            info = current.module.functions.get(
                f"{current.node.name}.{name}")
            if info is not None:
                return info
            for base in current.node.bases:
                from repro.analysis.rules import dotted_name
                base_name = dotted_name(base)
                if base_name is None:
                    continue
                base_cls = self.resolve_class(current.module, base_name)
                if base_cls is not None:
                    stack.append(base_cls)
        return None
