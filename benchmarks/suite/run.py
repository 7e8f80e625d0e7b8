"""The ``BENCHMARK.json`` command.

    python3 benchmarks/suite/run.py --workload W --seed N \
        --seconds S --trace 0|1

Runs from the root of a plain checkout (no ``PYTHONPATH``, not a git
repository) and prints one JSON result line last.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.suite.cli import main

    sys.exit(main(["driver", *sys.argv[1:]]))
