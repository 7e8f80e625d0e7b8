"""Per-rule fixtures for the SIM10x cross-module taint pass.

Every flow rule gets a seeded violation that must be detected, plus
negative fixtures for the features that keep the pass quiet on healthy
code: order-laundering helpers, inline suppressions, and values that
never reach a sink.
"""

import json

from repro.__main__ import main
from repro.analysis.simflow import analyze_paths


def build(tmp_path, **modules):
    pkg = tmp_path / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    for name, source in modules.items():
        (pkg / f"{name}.py").write_text(source)
    return pkg


def codes(findings):
    return sorted(f.code for f in findings)


def test_sim101_tainted_schedule_delay(tmp_path):
    pkg = build(tmp_path, mod=(
        "import time\n"
        "def kick(env):\n"
        "    delay = time.time()\n"
        "    env.timeout(delay)\n"))
    assert codes(analyze_paths([pkg])) == ["SIM101"]


def test_sim102_tainted_digest_input(tmp_path):
    pkg = build(tmp_path, mod=(
        "import os\n"
        "def fingerprint(stable_hash):\n"
        "    return stable_hash(os.getenv('HOME'))\n"))
    assert codes(analyze_paths([pkg])) == ["SIM102"]


def test_sim103_tainted_aggregate_row(tmp_path):
    pkg = build(tmp_path, mod=(
        "import json\n"
        "import random\n"
        "def row():\n"
        "    payload = {'jitter': random.random()}\n"
        "    return json.dumps(payload)\n"))
    assert codes(analyze_paths([pkg])) == ["SIM103"]


def test_sim104_tainted_metric_label_and_sample(tmp_path):
    pkg = build(tmp_path, mod=(
        "import socket\n"
        "import time\n"
        "def label(registry):\n"
        "    registry.counter('units', host=socket.gethostname())\n"
        "def sample(histogram):\n"
        "    histogram.observe(time.perf_counter())\n"))
    assert codes(analyze_paths([pkg])) == ["SIM104", "SIM104"]


def test_taint_crosses_module_boundaries(tmp_path):
    """The whole point of --flow: source and sink in different files."""
    pkg = build(
        tmp_path,
        clock=("import time\n"
               "def jitter():\n"
               "    return time.time() % 1.0\n"),
        sched=("from pkg.clock import jitter\n"
               "def kick(env):\n"
               "    delay = jitter()\n"
               "    env.timeout(delay)\n"))
    (finding,) = analyze_paths([pkg])
    assert finding.code == "SIM101"
    assert finding.path == "pkg/sched.py"
    assert "pkg/clock.py" in finding.message


def test_sorted_launders_unordered_taint(tmp_path):
    """``sorted()`` clears the unordered-iteration taint; an unsorted
    set materialization keeps it."""
    dirty = build(tmp_path / "dirty", mod=(
        "def rows(names, stable_hash):\n"
        "    order = list(set(names))\n"
        "    return stable_hash(order)\n"))
    clean = build(tmp_path / "clean", mod=(
        "def rows(names, stable_hash):\n"
        "    order = sorted(set(names))\n"
        "    return stable_hash(order)\n"))
    assert codes(analyze_paths([dirty])) == ["SIM102"]
    assert analyze_paths([clean]) == []


def test_untainted_values_stay_quiet(tmp_path):
    pkg = build(tmp_path, mod=(
        "def kick(env, delay):\n"
        "    env.timeout(delay)\n"
        "def fingerprint(stable_hash):\n"
        "    return stable_hash('constant')\n"))
    assert analyze_paths([pkg]) == []


def test_inline_suppression_silences_flow_finding(tmp_path):
    pkg = build(tmp_path, mod=(
        "import time\n"
        "def kick(env):\n"
        "    env.timeout(time.time())  # simlint: disable=SIM101\n"))
    assert analyze_paths([pkg]) == []


def test_cli_flow_check_fails_on_seeded_violation(tmp_path, capsys):
    pkg = build(tmp_path, mod=(
        "import time\n"
        "def kick(env):\n"
        "    env.timeout(time.time())\n"))
    assert main(["lint", str(pkg), "--flow", "--check",
                 "--baseline", str(tmp_path / "b.json")]) == 1
    out = capsys.readouterr().out
    assert "SIM101" in out


def test_cli_flow_check_passes_on_clean_tree(tmp_path, capsys):
    pkg = build(tmp_path, mod=(
        "def kick(env, delay):\n"
        "    env.timeout(delay)\n"))
    assert main(["lint", str(pkg), "--flow", "--check",
                 "--baseline", str(tmp_path / "b.json")]) == 0


def test_flow_baseline_tolerated_and_not_stale_without_flow(tmp_path,
                                                           capsys):
    """A SIM10x entry in the shared ledger suppresses the finding under
    --flow and is *not* reported stale when --flow does not run."""
    pkg = build(tmp_path, mod=(
        "import time\n"
        "def kick(env):\n"
        "    env.timeout(time.time())  # simlint: disable=SIM001\n"))
    baseline = tmp_path / "b.json"
    baseline.write_text(json.dumps({"version": 1, "entries": [
        {"path": "pkg/mod.py", "code": "SIM101", "line": 3,
         "justification": "fixture"}]}))
    assert main(["lint", str(pkg), "--flow", "--check",
                 "--baseline", str(baseline)]) == 0
    capsys.readouterr()
    # Module-rule-only run: the SIM101 entry's family did not execute,
    # so it must not be flagged stale.
    assert main(["lint", str(pkg), "--check",
                 "--baseline", str(baseline)]) == 0


def test_committed_flow_baseline_is_empty_and_fresh():
    """The repo's own tree is flow-clean: the CI gate for --flow."""
    from pathlib import Path

    from repro.analysis.simlint import (
        Baseline,
        flow_rule_codes,
        lint_paths,
        module_rule_codes,
    )

    repo = Path(__file__).resolve().parents[2]
    findings = sorted(
        lint_paths([repo / "src" / "repro"], relative_to=repo)
        + analyze_paths([repo / "src" / "repro"]))
    baseline = Baseline.load(repo / "simlint-baseline.json")
    new, stale = baseline.split(
        findings, codes=module_rule_codes() + flow_rule_codes())
    assert new == [], "\n".join(f.render() for f in new)
    assert stale == [], [e.key for e in stale]
