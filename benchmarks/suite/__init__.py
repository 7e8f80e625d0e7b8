"""Layer-attributed benchmark suite (see README.md in this directory).

Self-contained: imports ``repro`` only through its public surface and
nothing from ``benchmarks/_harness.py`` or ``benchmarks/bench_*.py``.
"""

import sys
from pathlib import Path

#: The checkout root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parents[2]
#: Where the measured program lives; put on ``sys.path`` so the suite
#: runs from a plain checkout without ``PYTHONPATH=src``.
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
