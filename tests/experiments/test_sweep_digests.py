"""Each pinned sweep digest, one test per grid.

The pins (``--quick``, jobs=1, root seed 42; ``figure6`` and
``sensitivity`` on their two-cell RP + RP-YARN subset) and the reason
they are pinned live in the determinism oracle,
``tests/analysis/test_determinism_oracle.py``.  These tests read the
oracle's session-wide run (``oracle_reports`` in ``tests/conftest.py``),
which recomputes every digest in two perturbed interpreters, so a drift
fails under the name of its grid without a second recomputation.
"""

import pytest

from tests.analysis.test_determinism_oracle import (QUICK_DIGESTS,
                                                    SUBSET_DIGESTS)


@pytest.mark.parametrize("grid", sorted(QUICK_DIGESTS))
def test_quick_grid_digest_pinned(oracle_reports, grid):
    for report in oracle_reports:
        assert report["digests"][grid] == QUICK_DIGESTS[grid]


@pytest.mark.parametrize("grid", sorted(SUBSET_DIGESTS))
def test_slow_grid_subset_digest_pinned(oracle_reports, grid):
    for report in oracle_reports:
        assert report["digests"][grid] == SUBSET_DIGESTS[grid][1]
