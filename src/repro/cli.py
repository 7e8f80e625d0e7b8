"""Declarative subcommand registry for ``python -m repro``.

Every CLI verb is one :class:`Command` spec — name, argument specs,
runner, documented exit codes — collected in :data:`REGISTRY`.  The
parser is *derived* from the registry, so adding a verb is adding one
entry, and the help text, dispatch table and exit-code contract can
never drift apart.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.experiments.sweeps import GRIDS


# ----------------------------------------------------------- argument specs
@dataclass(frozen=True)
class Arg:
    """One ``add_argument`` call."""

    flags: Tuple[str, ...]
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        parser.add_argument(*self.flags, **self.kwargs)


def arg(*flags: str, **kwargs: Any) -> Arg:
    return Arg(flags=flags, kwargs=kwargs)


@dataclass(frozen=True)
class Command:
    """One CLI verb: its arguments, runner and exit-code contract."""

    name: str
    help: str
    runner: Callable[[argparse.Namespace], int]
    args: Tuple[Arg, ...] = ()
    exit_codes: Tuple[Tuple[int, str], ...] = (
        (0, "success"), (2, "usage error"))
    description: Optional[str] = None

    def add_to(self, subparsers) -> None:
        epilog = "exit codes: " + "; ".join(
            f"{code} = {meaning}" for code, meaning in self.exit_codes)
        parser = subparsers.add_parser(
            self.name, help=self.help,
            description=self.description or self.help, epilog=epilog)
        for spec in self.args:
            spec.add_to(parser)


# ----------------------------------------------------------------- runners
def _figure5(args: argparse.Namespace):
    from repro.experiments import (
        run_figure5_pilot_startup,
        run_figure5_unit_startup,
    )
    from repro.experiments.tables import figure5_report
    return figure5_report(run_figure5_pilot_startup(),
                          run_figure5_unit_startup())


def _figure6(args: argparse.Namespace):
    from repro.experiments import run_figure6
    from repro.experiments.tables import figure6_report
    return figure6_report(run_figure6(quick=args.quick))


def _ablations(args: argparse.Namespace):
    from repro.experiments import SCENARIOS, run_figure6_cell
    from repro.experiments.ablations import (
        run_am_reuse,
        run_integration_level,
        run_spark_deploy_mode,
    )
    from repro.experiments.tables import ablations_report
    # A3 on the real workload: the two Stampede 32-task Figure 6 cells,
    # as run and with the paper's proposed AM re-use.
    a3_kmeans = [
        tuple(run_figure6_cell("stampede", "RP-YARN", points, clusters, 32,
                               reuse_application_master=reuse)
              for reuse in (False, True))
        for points, clusters in (SCENARIOS[0], SCENARIOS[-1])]
    return ablations_report(run_integration_level(),
                            run_spark_deploy_mode(), run_am_reuse(),
                            a3_kmeans)


def _sensitivity(args: argparse.Namespace):
    from repro.experiments.sensitivity import sweep_lustre_bandwidth
    from repro.experiments.tables import sensitivity_report
    return sensitivity_report(sweep_lustre_bandwidth())


#: The paper's artefacts, in the order ``all`` prints them; each returns
#: ``(report text, every paper-shape check holds)``.
_PAPER = {"figure5": _figure5, "figure6": _figure6,
          "ablations": _ablations, "sensitivity": _sensitivity}


def _run_paper(args: argparse.Namespace) -> int:
    names = list(_PAPER) if args.command == "all" else [args.command]
    holds = True
    for name in names:
        text, ok = _PAPER[name](args)
        print(text + "\n")
        holds = holds and ok
    return 0 if holds else 1


def _run_trace(args: argparse.Namespace) -> int:
    from repro.telemetry.runner import format_report, run_traced_kmeans
    try:
        run = run_traced_kmeans(
            machine=args.machine, flavor=args.flavor, points=args.points,
            clusters=args.clusters, ntasks=args.ntasks,
            iterations=args.iterations, seed=args.seed,
            out_dir=args.output)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_report(run))
    return 0 if run.centroids_ok else 1


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweeps import build_cells, run_sweep
    from repro.experiments.tables import format_table
    from repro.persist import PersistError
    if args.list or args.grid is None:
        # Discoverability: list every registered grid with its size, so
        # new grids never need a trip through the source.
        print("registered sweep grids:")
        for name in GRIDS:
            cells = build_cells(name, root_seed=args.seed,
                                quick=args.quick)
            print(f"  {name:<12} {len(cells)} cells")
        if args.grid is None and not args.list:
            print("\nusage: python -m repro sweep GRID [--jobs N] "
                  "[--quick] [--output FILE] [--run-dir DIR [--resume]]")
        return 0
    try:
        run = run_sweep(args.grid, root_seed=args.seed, jobs=args.jobs,
                        quick=args.quick, run_dir=args.run_dir,
                        resume=args.resume, max_cells=args.max_cells)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PersistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    status = "" if run.complete else \
        f" (INCOMPLETE: {len(run.results)} of the grid journaled)"
    print(f"sweep {run.grid}: {len(run.results)} cells "
          f"({run.executed} run, {run.skipped} resumed), "
          f"jobs={run.jobs}, wall {run.wall_seconds:.2f}s, "
          f"digest {run.digest()[:12]}{status}")
    print(format_table(
        ["cell", "wall (s)"],
        [(r["key"], r["wall_seconds"]) for r in run.results]))
    if run.grid == "raptor":
        # The headline comparison: overlay vs. per-unit tasks/sec.
        for result in run.results:
            for row in result["rows"]:
                if "speedup" in row:
                    print(f"{row['ntasks']} tasks: overlay "
                          f"{row['overlay_tasks_per_sec']:.0f} tasks/s "
                          f"vs per-unit YARN "
                          f"{row['per_unit_tasks_per_sec']:.2f} tasks/s "
                          f"-> {row['speedup']:.0f}x")
                elif "identical" in row:
                    state = "identical" if row["identical"] else "DIVERGED"
                    print(f"equivalence ({row['ntasks']} tasks): "
                          f"overlay and per-unit results {state}")
    if args.output:
        import json
        with open(args.output, "w") as fh:
            json.dump(run.report(), fh, indent=2, sort_keys=True)
        print(f"wrote {args.output}")
    return 0


def _parse_param(item: str) -> Tuple[str, Any]:
    """``K=V`` with JSON-ish value coercion (int, float, bool, str)."""
    if "=" not in item:
        raise ValueError(f"--param needs K=V, got {item!r}")
    key, raw = item.split("=", 1)
    import json
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def _run_checkpoint(args: argparse.Namespace) -> int:
    from repro.persist import PersistError, launch, scenario_names
    if args.list or args.scenario is None:
        print("registered checkpoint scenarios:")
        for name in scenario_names():
            print(f"  {name}")
        if args.scenario is None and not args.list:
            print("\nusage: python -m repro checkpoint SCENARIO "
                  "--store DIR [--at T] [--seed N] [--param K=V]...")
        return 0
    try:
        params = dict(_parse_param(item) for item in args.param)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        session = launch(args.scenario, seed=args.seed, **params)
    except (PersistError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.at is not None:
        if args.at < session.env.now:
            print(f"error: --at {args.at} lies before the scenario's "
                  f"own end time {session.env.now:.3f}", file=sys.stderr)
            return 2
        session.env.run(until=args.at)
    try:
        info = session.checkpoint(args.store, ref=args.ref)
    except (PersistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"checkpointed scenario {info.scenario!r} at "
          f"t={info.now:.3f} (step {info.steps})")
    print(f"  store: {args.store}")
    print(f"  ref:   {args.ref} -> {info.digest[:16]}")
    print(f"  state: {info.state_digest}")
    return 0


def _run_restore(args: argparse.Namespace) -> int:
    from repro.persist import PersistError, state_digest
    from repro.persist import restore as restore_session
    try:
        session = restore_session(args.store, ref=args.ref)
    except (PersistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prov = session.provenance
    print(f"restored scenario {prov.name!r} (seed {prov.seed}) at "
          f"t={session.env.now:.3f} (step {session.env.steps}); "
          f"state digest verified")
    if args.until is not None:
        if args.until < session.env.now:
            print(f"error: --until {args.until} lies before the "
                  f"restored clock {session.env.now:.3f}",
                  file=sys.stderr)
            return 2
        session.env.run(until=args.until)
        print(f"ran to t={session.env.now:.3f} (step "
              f"{session.env.steps}), state digest "
              f"{state_digest(session)[:16]}")
    return 0


# ---------------------------------------------------------------- registry
_QUICK = arg("--quick", action="store_true",
             help="figure6: run a reduced 16-cell grid")
_PAPER_EXIT_CODES = ((0, "every paper-shape check holds"),
                     (1, "a paper-shape check failed"), (2, "usage error"))

COMMANDS: Tuple[Command, ...] = (
    *(Command(name=name, runner=_run_paper, exit_codes=_PAPER_EXIT_CODES,
              help=f"run the {name} experiment(s)",
              args=(_QUICK,) if name in ("figure6", "all") else ())
      for name in (*_PAPER, "all")),
    Command(
        name="sweep", runner=_run_sweep,
        help="run an experiment grid over a process pool "
             f"({', '.join(GRIDS)})",
        args=(
            arg("grid", nargs="?", default=None, choices=list(GRIDS),
                help="grid to run; omit (or --list) to list the "
                     "registered grids"),
            arg("--list", action="store_true",
                help="list the registered sweep grids and exit"),
            arg("--jobs", type=int, default=None, metavar="N",
                help="worker processes (default: all cores; "
                     "1 = sequential reference path)"),
            arg("--seed", type=int, default=42,
                help="root seed; per-cell seeds derive from it"),
            arg("--quick", action="store_true",
                help="figure6/chaos/raptor/service: run a reduced grid"),
            arg("--output", default=None, metavar="FILE",
                help="write the structured JSON result here"),
            arg("--run-dir", default=None, metavar="DIR",
                help="journal per-cell completion here (crash-safe; "
                     "enables --resume)"),
            arg("--resume", action="store_true",
                help="re-run only cells the --run-dir journal does "
                     "not already hold"),
            arg("--max-cells", type=int, default=None, metavar="N",
                help="execute at most N cells this invocation "
                     "(incremental runs)"),
        ),
        exit_codes=((0, "success"), (1, "journal mismatch or disk error"),
                    (2, "usage error"))),
    Command(
        name="trace", runner=_run_trace,
        help="run one telemetry-enabled K-Means cell and export traces",
        args=(
            arg("--machine", default="stampede",
                choices=["stampede", "wrangler"]),
            arg("--flavor", default="RP-YARN", choices=["RP", "RP-YARN"],
                help="plain pilot (fork) or Mode I YARN pilot"),
            arg("--points", type=int, default=10_000),
            arg("--clusters", type=int, default=8),
            arg("--ntasks", type=int, default=8),
            arg("--iterations", type=int, default=2),
            arg("--seed", type=int, default=42),
            arg("--output", default=None, metavar="DIR",
                help="write trace.json / spans.jsonl / events.jsonl / "
                     "metrics.jsonl here"),
        ),
        exit_codes=((0, "success"), (1, "centroid validation failed"),
                    (2, "usage error"))),
    Command(
        name="checkpoint", runner=_run_checkpoint,
        help="launch a registered scenario and checkpoint it into a "
             "snapshot store",
        args=(
            arg("scenario", nargs="?", default=None,
                help="registered scenario name; omit (or --list) to "
                     "list them"),
            arg("--list", action="store_true",
                help="list the registered scenarios and exit"),
            arg("--store", default="checkpoint-store", metavar="DIR",
                help="snapshot store directory "
                     "(default: checkpoint-store)"),
            arg("--at", type=float, default=None, metavar="T",
                help="advance the simulation clock to T before "
                     "checkpointing"),
            arg("--seed", type=int, default=42,
                help="scenario seed"),
            arg("--param", action="append", default=[], metavar="K=V",
                help="scenario parameter override (repeatable; JSON "
                     "values)"),
            arg("--ref", default="latest", metavar="NAME",
                help="named ref to point at the snapshot "
                     "(default: latest)"),
        ),
        exit_codes=((0, "success"), (1, "checkpoint failed"),
                    (2, "usage error"))),
    Command(
        name="restore", runner=_run_restore,
        help="restore a checkpointed session and verify its state "
             "digest",
        args=(
            arg("store", metavar="STORE",
                help="snapshot store directory to restore from"),
            arg("--ref", default="latest", metavar="NAME",
                help="snapshot ref or raw digest (default: latest)"),
            arg("--until", type=float, default=None, metavar="T",
                help="after the verified restore, advance the "
                     "simulation clock to T"),
        ),
        exit_codes=((0, "restored and verified"),
                    (1, "restore or verification failed"),
                    (2, "usage error"))),
)

REGISTRY: Dict[str, Command] = {command.name: command
                                for command in COMMANDS}


def build_parser() -> argparse.ArgumentParser:
    """Derive the full CLI parser from :data:`REGISTRY`."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's experiments on the "
                    "simulated testbed.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    for command in COMMANDS:
        command.add_to(sub)
    return parser


def main(argv=None) -> int:
    """Parse and dispatch; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # bad args (or --help): report, don't raise
        code = exc.code
        return code if isinstance(code, int) else 2
    return REGISTRY[args.command].runner(args)
