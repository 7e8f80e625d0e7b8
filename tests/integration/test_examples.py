"""Smoke tests: every shipped example must run to completion.

Each example is executed in-process (its ``main()``), capturing stdout
so failures surface as test failures rather than user-facing bitrot.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
EXAMPLES = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))


def load_example(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_expected_examples_present():
    assert set(EXAMPLES) >= {
        "quickstart", "kmeans_hadoop_on_hpc", "md_trajectory_pipeline",
        "saga_hadoop_spark", "pilot_data_workflow", "adaptive_sampling",
        "multi_domain_analytics"}


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    module = load_example(name)
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"example {name} printed nothing"
    assert "WRONG" not in out
    assert "FAILED" not in out
