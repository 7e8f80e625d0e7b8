"""simlint: an AST-based determinism linter for the simulation stack.

The paper's figures are reproducible only because every component of
the simulated pilot/YARN/HDFS stack is deterministic, and history shows
that property erodes one innocuous-looking line at a time: a
module-global counter here, a salted ``hash()`` there.  simlint makes
the property *checked* instead of reviewed: each hazard class is a
:class:`~repro.analysis.rules.Rule` with a stable ``SIM00x`` code, and
``python -m repro lint --check`` fails CI when a new finding appears.

Three layers:

* **rules** — registered in :data:`repro.analysis.rules.RULES`; each
  walks a parsed module and yields findings.
* **suppressions** — an inline ``# simlint: disable=SIM001`` comment on
  the flagged line silences specific codes (bare ``disable`` silences
  all); deliberate exceptions stay visible next to the code they excuse.
* **baseline** — a committed JSON file of known findings
  (``simlint-baseline.json``); ``--check`` fails on findings *not* in
  the baseline and on *stale* baseline entries that no longer
  reproduce, so the debt ledger can only shrink.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Matches an inline suppression comment.  ``disable=SIM001,SIM002``
#: silences the listed codes on that line; a bare ``disable`` silences
#: every rule on the line.
_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*disable(?:=(?P<codes>[A-Z0-9,\s]+))?")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def baseline_key(self) -> Tuple[str, str, int]:
        return (self.path, self.code, self.line)

    def to_dict(self) -> Dict[str, object]:
        return {"path": self.path, "line": self.line, "col": self.col,
                "code": self.code, "message": self.message}

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Line -> suppressed codes (``None`` = all codes) for ``source``."""
    out: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            out[lineno] = None
        else:
            out[lineno] = {c.strip() for c in codes.split(",") if c.strip()}
    return out


def module_rule_codes() -> List[str]:
    """Codes of the per-module (syntactic) rules, sorted."""
    from repro.analysis.rules import RULES
    return sorted(code for code, rule in RULES.items()
                  if rule.scope == "module")


def flow_rule_codes() -> List[str]:
    """Codes of the cross-module flow rules (SIM10x), sorted."""
    from repro.analysis.rules import RULES
    return sorted(code for code, rule in RULES.items()
                  if rule.scope == "project")


def lint_source(source: str, path: str = "<string>",
                rules: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint one module's source text; returns sorted findings.

    ``rules`` restricts the run to the given codes (default: all
    registered per-module rules; project-scope rules need the import
    graph and are driven by :mod:`repro.analysis.simflow` instead).
    """
    from repro.analysis.rules import RULES

    tree = ast.parse(source, filename=path)
    suppressed = suppressions(source)
    selected = {code: rule for code, rule in RULES.items()
                if rule.scope == "module"} if rules is None else {
        code: RULES[code] for code in rules}
    findings: List[Finding] = []
    for code in sorted(selected):
        rule = selected[code]
        for raw in rule.check(tree, source):
            line, col, message = raw
            codes = suppressed.get(line, False)
            if codes is None or (codes and code in codes):
                continue
            findings.append(Finding(path=path, line=line, col=col,
                                    code=code, message=message))
    return sorted(findings)


def lint_file(path: Path | str,
              rules: Optional[Sequence[str]] = None,
              relative_to: Optional[Path] = None) -> List[Finding]:
    """Lint one file; finding paths are repo-root-relative POSIX style.

    The default base is the nearest repo root above the file
    (``pyproject.toml``/``.git`` marker; the file's directory when no
    marker exists), *not* the cwd — so the committed baseline's keys
    (``src/repro/...``) match no matter where the CLI runs from.
    """
    from repro.analysis.project import display_base

    path = Path(path)
    shown = path
    base = relative_to if relative_to is not None else display_base(path)
    if base is not None:
        try:
            shown = path.resolve().relative_to(Path(base).resolve())
        except ValueError:
            pass
    return lint_source(path.read_text(), path=shown.as_posix(),
                       rules=rules)


def iter_py_files(paths: Iterable[Path | str]) -> List[Path]:
    """All ``.py`` files under the given files/directories, sorted."""
    out: Set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            out.update(p for p in path.rglob("*.py")
                       if "__pycache__" not in p.parts)
        elif path.suffix == ".py":
            out.add(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return sorted(out)


def lint_paths(paths: Iterable[Path | str],
               rules: Optional[Sequence[str]] = None,
               relative_to: Optional[Path] = None) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``; sorted findings."""
    findings: List[Finding] = []
    for path in iter_py_files(paths):
        findings.extend(lint_file(path, rules=rules,
                                  relative_to=relative_to))
    return sorted(findings)


# --------------------------------------------------------------- baseline
@dataclass(frozen=True)
class BaselineEntry:
    """One accepted legacy finding, with its written-down excuse."""

    path: str
    code: str
    line: int
    justification: str = ""

    @property
    def key(self) -> Tuple[str, str, int]:
        return (self.path, self.code, self.line)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"path": self.path, "code": self.code,
                                  "line": self.line}
        if self.justification:
            out["justification"] = self.justification
        return out


@dataclass
class Baseline:
    """The committed ledger of known findings."""

    entries: List[BaselineEntry] = field(default_factory=list)

    @classmethod
    def load(cls, path: Path | str) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline."""
        path = Path(path)
        if not path.exists():
            return cls()
        data = json.loads(path.read_text())
        return cls(entries=[
            BaselineEntry(path=str(e["path"]), code=str(e["code"]),
                          line=int(e["line"]),
                          justification=str(e.get("justification", "")))
            for e in data.get("entries", [])])

    def save(self, path: Path | str) -> None:
        payload = {"version": 1,
                   "entries": [e.to_dict() for e in sorted(
                       self.entries, key=lambda e: e.key)]}
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        return cls(entries=[
            BaselineEntry(path=f.path, code=f.code, line=f.line)
            for f in findings])

    def split(self, findings: Sequence[Finding],
              codes: Optional[Sequence[str]] = None
              ) -> Tuple[List[Finding], List[BaselineEntry]]:
        """Partition a scan against the baseline.

        Returns ``(new, stale)``: findings absent from the baseline,
        and baseline entries no fresh finding matched (so the ledger
        can never hold entries that silently stopped reproducing).

        The ledger is shared by the module-rule and flow passes;
        ``codes`` names the rule codes *this* run executed, so entries
        for families that did not run are never reported stale.
        """
        known = {e.key for e in self.entries}
        seen = {f.baseline_key for f in findings}
        new = [f for f in findings if f.baseline_key not in known]
        ran = None if codes is None else set(codes)
        stale = [e for e in self.entries if e.key not in seen
                 and (ran is None or e.code in ran)]
        return new, stale


# ----------------------------------------------------------------- output
def format_text(findings: Sequence[Finding],
                stale: Sequence[BaselineEntry] = ()) -> str:
    lines = [f.render() for f in findings]
    for entry in stale:
        lines.append(f"{entry.path}:{entry.line}: {entry.code} "
                     "[stale baseline entry: no longer reproduced]")
    counts: Dict[str, int] = {}
    for f in findings:
        counts[f.code] = counts.get(f.code, 0) + 1
    summary = ", ".join(f"{code}={n}" for code, n in sorted(counts.items()))
    lines.append(f"{len(findings)} finding(s), {len(stale)} stale "
                 f"baseline entr(y/ies)" + (f" [{summary}]" if summary else ""))
    return "\n".join(lines)


def format_json(findings: Sequence[Finding],
                stale: Sequence[BaselineEntry] = ()) -> str:
    from repro.analysis.rules import RULES
    payload = {
        "version": 1,
        "rules": {code: rule.summary for code, rule in sorted(RULES.items())},
        "findings": [f.to_dict() for f in findings],
        "stale_baseline_entries": [e.to_dict() for e in stale],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


# -------------------------------------------------------------------- CLI
def resolve_cli_path(path: str, must_exist: bool = True) -> str:
    """Resolve a relative CLI path against the repo root as a fallback.

    Running ``python -m repro lint --check`` from a subdirectory must
    behave exactly as from the root: a relative path (scan target or
    baseline file) that does not exist under the cwd but does exist
    under the nearest repo root resolves there.
    """
    from repro.analysis.project import repo_root_of

    candidate = Path(path)
    if candidate.is_absolute() or candidate.exists():
        return path
    root = repo_root_of(Path.cwd())
    if root is not None:
        rooted = root / candidate
        if rooted.exists() or not must_exist:
            return str(rooted)
    return path


def lint_command(paths: Sequence[str], output: str = "text",
                 check: bool = False, baseline_path: str = "simlint-baseline.json",
                 update_baseline: bool = False,
                 list_rules: bool = False,
                 flow: bool = False) -> int:
    """Drive one lint run; returns the process exit code.

    Without ``--check`` the scan is report-only (exit 0).  With
    ``--check``, exit 1 when the scan disagrees with the baseline in
    either direction (new findings, or stale entries).  ``flow`` adds
    the cross-module SIM10x taint pass; the baseline ledger is shared,
    with staleness judged only against the rule families that ran.
    """
    from repro.analysis.rules import RULES

    if list_rules:
        width = max(len(code) for code in RULES)
        for code, rule in sorted(RULES.items()):
            print(f"{code.ljust(width)}  {rule.summary}")
        return 0

    paths = [resolve_cli_path(p) for p in paths]
    baseline_path = resolve_cli_path(baseline_path, must_exist=False)
    findings = lint_paths(paths)
    codes_run = module_rule_codes()
    if flow:
        from repro.analysis.simflow import analyze_paths
        findings = sorted(findings + analyze_paths(paths))
        codes_run += flow_rule_codes()
    if update_baseline:
        Baseline.from_findings(findings).save(baseline_path)
        print(f"wrote {len(findings)} entr(y/ies) to {baseline_path}")
        return 0

    baseline = Baseline.load(baseline_path)
    new, stale = baseline.split(findings, codes=codes_run)
    shown = new if check else findings
    if output == "json":
        print(format_json(shown, stale if check else ()))
    else:
        print(format_text(shown, stale if check else ()))
    if check and (new or stale):
        return 1
    return 0
