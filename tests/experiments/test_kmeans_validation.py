"""The K-Means experiments share one dataset and one reference per
scenario, and every cell still validates its own centroids against it."""

import numpy as np
import pytest

from repro.analytics import kmeans
from repro.experiments import figure6, sensitivity

#: A scenario small enough to run in well under a second per cell.
POINTS, CLUSTERS, NTASKS = 4_000, 5, 8


@pytest.fixture()
def fresh_memo(monkeypatch):
    """Empty per-process caches, and a count of reference runs."""
    monkeypatch.setattr(figure6, "_POINTS_CACHE", {})
    monkeypatch.setattr(figure6, "_EXPECTED_CACHE", {})
    calls = []

    def counted(points, k, iterations):
        calls.append((len(points), k, iterations))
        return kmeans.kmeans_reference(points, k, iterations=iterations)

    monkeypatch.setattr(figure6, "kmeans_reference", counted)
    return calls


def test_reference_runs_once_per_scenario(fresh_memo):
    rows = [figure6.run_figure6_cell("stampede", flavor, POINTS, CLUSTERS,
                                     NTASKS)
            for flavor in ("RP", "RP-YARN")]
    assert [row.centroids_ok for row in rows] == [True, True]
    assert fresh_memo == [(POINTS, CLUSTERS, 2)]
    # another scenario (or iteration count) is another reference
    figure6._expected_for(POINTS, CLUSTERS + 1)
    figure6._expected_for(POINTS, CLUSTERS, 3)
    assert fresh_memo[1:] == [(POINTS, CLUSTERS + 1, 2),
                              (POINTS, CLUSTERS, 3)]


def test_shifted_centroids_fail_their_own_cell_only(fresh_memo, monkeypatch):
    real = figure6.run_kmeans_pilot

    def shifted(*args, **kwargs):
        centroids, units = yield from real(*args, **kwargs)
        return centroids + 1e-3, units

    good = figure6.run_figure6_cell("stampede", "RP", POINTS, CLUSTERS,
                                    NTASKS)
    monkeypatch.setattr(figure6, "run_kmeans_pilot", shifted)
    bad = figure6.run_figure6_cell("stampede", "RP", POINTS, CLUSTERS,
                                   NTASKS)
    assert good.centroids_ok and not bad.centroids_ok
    assert bad.runtime == good.runtime
    assert len(fresh_memo) == 1


def test_shared_arrays_are_read_only(fresh_memo):
    for shared in (figure6._points_for(POINTS, CLUSTERS),
                   figure6._expected_for(POINTS, CLUSTERS)):
        with pytest.raises(ValueError, match="read-only"):
            shared[0, 0] = 0.0
    assert figure6._points_for(POINTS, CLUSTERS) \
        is figure6._points_for(POINTS, CLUSTERS)


def test_sensitivity_cell_validates_its_centroids(fresh_memo, monkeypatch):
    assert sensitivity._run_cell(100e6, "RP", POINTS, CLUSTERS, NTASKS,
                                 nodes=1) > 0.0
    assert len(fresh_memo) == 1      # the reference is memoised unpatched

    def drifting(centroids, sums, counts):
        return np.asarray(centroids) + 1e-3

    monkeypatch.setattr(kmeans, "_update", drifting)
    with pytest.raises(RuntimeError) as err:
        sensitivity._run_cell(100e6, "RP-YARN", POINTS, CLUSTERS, NTASKS,
                              nodes=1)
    message = str(err.value)
    assert "diverge" in message
    for parameter in ("lustre_bw=1e+08", "flavor=RP-YARN",
                      f"points={POINTS}", f"clusters={CLUSTERS}",
                      f"ntasks={NTASKS}"):
        assert parameter in message
