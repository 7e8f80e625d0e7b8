"""Which functions of ``src/repro`` do the repo's artefacts reach?

Runs every artefact the repo ships — the paper verbs, the seven quick
sweep grids, a journaled sweep and its resume, ``trace``, the
checkpoint/restore round-trips, the examples and the benchmark suite's
seven workload children — each in a fresh interpreter with a
``sys.settrace`` hook that records the code object of every Python call
(``settrace``, not ``setprofile``: the suite's traced repeats install
cProfile, which replaces a profile hook but leaves a trace hook alone).
It then lists every function and method defined under ``src/repro``
(from the AST; lambdas excluded) that no artefact called.

Every unreached function must be on ``tools/reachability_allowlist.txt``,
one ``module:qualname  bin  reason`` per line (``module`` alone covers a
whole module, ``module:Class`` a whole class).  The bins are ROADMAP
item 4's two and one for tested library surface:

* ``robustness`` — an error or robustness path; the reason names the
  test that drives it;
* ``paper`` — the paper needs it but no artefact shows it; the reason
  names where the paper does;
* ``library`` — a public member of the library that no artefact calls
  but a test checks; the reason names the test.

Exit status 1 when a function goes unreached without an entry, when an
entry names a function that no longer exists or that an artefact now
reaches (so the list cannot go stale), or when a reason names a
``tests/...py::test_name`` that is not defined.  Takes a few minutes; CI
only.

Run from anywhere: ``python tools/reachability.py``.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = Path(__file__).resolve().with_name("reachability_allowlist.txt")
BINS = ("robustness", "paper", "library")

#: Installed as ``sitecustomize`` ahead of everything on PYTHONPATH, so
#: every interpreter an artefact starts records its calls too.
_HOOK = '''\
import atexit, json, os, sys, threading
_seen = set()
def _call(frame, event, arg):
    _seen.add(frame.f_code)
sys.settrace(_call)
threading.settrace(_call)
def _dump(prefix={prefix!r}, out={out!r}):
    sys.settrace(None)
    hits = sorted({{(c.co_filename, c.co_firstlineno) for c in list(_seen)
                   if c.co_filename.startswith(prefix)}})
    with open(os.path.join(out, f"{{os.getpid()}}.json"), "w") as f:
        json.dump(hits, f)
atexit.register(_dump)
'''

SUITE_WORKLOADS = ("units-fork", "units-yarn", "raptor-stream",
                   "shuffle-dataplane", "service-sessions",
                   "persist-cycle", "paper-figs")
SUITE_TRACED = ("units-fork", "units-yarn")


def artefacts(work: Path) -> List[List[str]]:
    """Every artefact, as an argv run from the repo root."""
    repro = [sys.executable, "-m", "repro"]
    grids = ("figure5", "figure6", "ablations", "sensitivity", "chaos",
             "raptor", "service")
    # The paper verbs run their cells in pool workers, which exit
    # without running ``atexit``: the ``--jobs 1`` sweeps reach the cell
    # bodies, ablations on its full grid for the A3-on-K-Means cells.
    runs: List[List[str]] = [
        [*repro, "all"],
        [*repro, "sweep", "--list"],
        *([*repro, "sweep", grid, *(() if grid == "ablations"
                                     else ("--quick",)),
           "--jobs", "1", "--output", str(work / f"{grid}.json")]
          for grid in grids),
        [*repro, "sweep", "chaos", "--quick", "--jobs", "1",
         "--run-dir", str(work / "run"), "--max-cells", "2"],
        [*repro, "sweep", "chaos", "--quick", "--jobs", "1",
         "--run-dir", str(work / "run"), "--resume",
         "--output", str(work / "resumed.json")],
        [*repro, "trace", "--points", "1200",
         "--output", str(work / "trace")],
        [*repro, "checkpoint", "--list"],
    ]
    # The CI round-trips: a fork bag, a YARN bag, a raptor stream and
    # the service grid's fair-share cell, each checkpointed, its store
    # verified, and restored.
    for store, scenario, at, until, params in (
            ("ckpt", "bag", "120", None, ("ntasks=4",)),
            ("ckpt-yarn", "bag", "140", "200",
             ("ntasks=4", "flavor=RP-YARN")),
            ("ckpt-raptor", "raptor-stream", "90", "120", ("ntasks=4",)),
            ("ckpt-fairshare", "fairshare", "150", "170", ())):
        path = str(work / store)
        runs.append([*repro, "checkpoint", scenario, "--store", path,
                     "--at", at,
                     *(f for p in params for f in ("--param", p))])
        runs.append([sys.executable, "-c",
                     "import sys; from repro.persist import SnapshotStore; "
                     "SnapshotStore(sys.argv[1], create=False).verify()",
                     path])
        runs.append([*repro, "restore", path,
                     *(("--until", until) if until else ())])
    runs += [[sys.executable, str(example)]
             for example in sorted((ROOT / "examples").glob("*.py"))]
    for name in SUITE_WORKLOADS:
        runs.append([sys.executable, "-m", "benchmarks.suite", "child",
                     "--workload", name, "--seed", "42", "--scale", "0.02",
                     "--t-spawn", repr(time.monotonic()), "--repeats", "1",
                     *(("--traced",) if name in SUITE_TRACED else ())])
    return runs


def defined() -> Dict[Tuple[str, int], Tuple[str, str, int]]:
    """(file, first line) -> (module, qualname, lines) of every def.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found: Dict[Tuple[str, int], Tuple[str, str, int]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    found[(str(path), first)] = (
                        module, qualname, child.end_lineno - first + 1)
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def probe() -> Set[Tuple[str, int]]:
    """Run every artefact under the hook; the (file, line) calls seen."""
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        tmp = Path(tmp)
        hook, out, work = tmp / "hook", tmp / "out", tmp / "work"
        for d in (hook, out, work):
            d.mkdir()
        (hook / "sitecustomize.py").write_text(
            _HOOK.format(prefix=str(PACKAGE), out=str(out)))
        env = dict(os.environ)
        env.pop("REPRO_SANITIZE", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook), str(SRC), str(ROOT)])
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        for argv in artefacts(work):
            started = time.perf_counter()
            done = subprocess.run(argv, cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            label = " ".join(Path(a).name if os.sep in a else a
                             for a in argv[1:])
            if done.returncode != 0:
                sys.exit(f"artefact failed ({done.returncode}): {label}\n"
                         f"{done.stderr[-2000:]}")
            print(f"  {time.perf_counter() - started:6.1f} s  {label}",
                  file=sys.stderr)
        seen: Set[Tuple[str, int]] = set()
        for dump in out.glob("*.json"):
            seen.update((f, line) for f, line in json.loads(dump.read_text()))
        return seen


def load_allowlist(path: Path) -> Dict[str, Tuple[str, str]]:
    """``module:qualname`` (or ``module``) -> (bin, reason)."""
    entries: Dict[str, Tuple[str, str]] = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(None, 2)
        if len(fields) < 3 or fields[1] not in BINS or fields[0] in entries:
            sys.exit(f"{path.name}:{number}: want a new "
                     f"'module:qualname  {'|'.join(BINS)}  reason'")
        entries[fields[0]] = (fields[1], fields[2])
    return entries


def main() -> int:
    functions = defined()
    seen = probe()
    allow = load_allowlist(ALLOWLIST)
    unreached = sorted((key for key in functions if key not in seen),
                       key=lambda k: functions[k][:2])

    # Lines of unreached code, counting a nested def once (inside its
    # unreached parent).
    spans = sorted((f, line, line + functions[(f, line)][2] - 1)
                   for f, line in unreached)
    lines, covered = 0, ("", 0)
    for path, first, last in spans:
        if path == covered[0] and last <= covered[1]:
            continue
        lines += last - first + 1
        covered = (path, last)

    total_lines = sum(n for _, _, n in functions.values())
    print(f"reached {len(functions) - len(unreached)} of {len(functions)} "
          f"functions; {len(unreached)} unreached span {lines} lines "
          f"(of {total_lines} function lines, nested counted twice)")

    def entry_for(module: str, qualname: str) -> Optional[str]:
        parts = qualname.split(".")
        for end in range(len(parts), 0, -1):
            name = f"{module}:{'.'.join(parts[:end])}"
            if name in allow:
                return name
        return module if module in allow else None

    used: Set[str] = set()
    missing = []
    for key in unreached:
        module, qualname, n = functions[key]
        name = f"{module}:{qualname}"
        entry = entry_for(module, qualname)
        if entry is None:
            missing.append(f"  {name}  ({n} lines)")
            continue
        used.add(entry)

    names = {f"{m}:{q}" for m, q, _ in functions.values()}
    modules = {m for m, _, _ in functions.values()}
    stale = [entry for entry in allow if entry not in used]
    for entry in stale:
        why = ("is reached now" if entry in names or entry in modules
               else "names no function")
        print(f"stale allowlist entry {entry}: {why}")
    for entry, (_, reason) in allow.items():
        for path, test in re.findall(r"(tests/\S+?\.py)::(\w+)", reason):
            source = ROOT / path
            if not source.exists() or not re.search(
                    rf"^def {test}\(", source.read_text(), re.M):
                stale.append(entry)
                print(f"allowlist entry {entry}: no test {path}::{test}")
    if missing:
        print(f"{len(missing)} unreached function(s) not on "
              f"{ALLOWLIST.name}:")
        print("\n".join(missing))
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
