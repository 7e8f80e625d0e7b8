"""Tests for K-Means: reference correctness + cross-engine agreement."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics import generate_points, kmeans_reference
from repro.analytics import kmeans
from repro.analytics.kmeans import _assign, _partial_sums, _update


def reference_assign(points, centroids):
    """The unblocked kernel ``_assign`` replaced (ISSUE 23), kept as the
    reference model: the full (n x k) distance matrix in one piece."""
    cross = points @ centroids.T                       # (n, k)
    c_norm = (centroids * centroids).sum(axis=1)       # (k,)
    return np.argmin(c_norm[None, :] - 2.0 * cross, axis=1)


def test_generate_points_shape_and_determinism():
    a = generate_points(100, 5, dim=3, seed=1)
    b = generate_points(100, 5, dim=3, seed=1)
    c = generate_points(100, 5, dim=3, seed=2)
    assert a.shape == (100, 3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generate_points_validation():
    with pytest.raises(ValueError):
        generate_points(0, 5)
    with pytest.raises(ValueError):
        generate_points(10, 0)


def test_assign_nearest_centroid():
    points = np.array([[0.0, 0.0], [1.0, 1.0], [0.9, 1.1]])
    centroids = np.array([[0.0, 0.0], [1.0, 1.0]])
    labels = _assign(points, centroids)
    assert labels.tolist() == [0, 1, 1]


@given(k=st.sampled_from([1, 2, 50, kmeans._TILE_ELEMENTS + 1]),
       size=st.sampled_from(["one", "block-1", "block", "block+1",
                             "blocks"]),
       dim=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       on_grid=st.booleans(), strided=st.booleans())
@settings(max_examples=60, deadline=None)
def test_blocked_assign_matches_reference(k, size, dim, seed, on_grid,
                                          strided):
    """Same labels as the one-piece kernel at every block boundary, for
    fewer clusters than a tile holds and for more, on duplicated
    centroids and on non-contiguous views."""
    block = max(1, kmeans._TILE_ELEMENTS // k)
    n = {"one": 1, "block-1": block - 1, "block": block,
         "block+1": block + 1, "blocks": 2 * block + 3}[size]
    rng = np.random.default_rng(seed)
    wide = rng.uniform(0.0, 1.0, size=(n, 2 * dim))
    # drawn with replacement: duplicated centroids tie exactly
    distinct = max(1, k // 2)
    centroids = rng.uniform(0.0, 1.0, size=(distinct, dim))[
        rng.integers(0, distinct, size=k)]
    if on_grid:
        # quarter-unit coordinates make every product and sum exact, so
        # distinct centroids tie too and both kernels must break the tie
        # the same way
        wide, centroids = np.round(wide * 4) / 4, np.round(centroids * 4) / 4
    # array_split along columns hands out non-contiguous (n, dim) views
    points = np.array_split(wide, 2, axis=1)[0] if strided \
        else np.ascontiguousarray(wide[:, :dim])
    assert not (strided and n > 1 and points.flags.c_contiguous)
    labels = _assign(points, centroids)
    assert labels.dtype == np.intp and labels.shape == (n,)
    assert np.array_equal(labels, reference_assign(points, centroids))


def test_assign_breaks_ties_towards_the_lowest_index():
    points = generate_points(1000, 4, seed=5)
    centroids = np.tile(points[:4], (3, 1))      # every centroid 3 times
    labels = _assign(points, centroids)
    assert labels.max() < 4
    assert np.array_equal(labels, reference_assign(points, centroids))


def test_assign_handles_row_chunks_of_a_read_only_dataset():
    """What the pilot decomposition feeds the kernel: ``array_split``
    row chunks (some empty) of an array nobody may write to."""
    points = generate_points(10, 3, seed=2)
    points.setflags(write=False)
    chunks = np.array_split(points, 16)
    labels = np.concatenate([_assign(c, points[:3]) for c in chunks])
    assert np.array_equal(labels, reference_assign(points, points[:3]))


def test_reference_memory_is_bounded_by_the_tile_not_the_matrix():
    """200,000 x 50 float64 distances are 80 MB apiece (the replaced
    kernel held three); the blocked one peaks at a tile plus labels."""
    points = generate_points(200_000, 50, seed=1234)
    tracemalloc.start()
    try:
        kmeans_reference(points, 50, iterations=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_partial_sums_against_manual():
    points = np.array([[0.0, 0.0], [2.0, 2.0], [0.2, 0.0]])
    centroids = np.array([[0.0, 0.0], [2.0, 2.0]])
    sums, counts = _partial_sums(points, centroids)
    assert counts.tolist() == [2.0, 1.0]
    assert sums[0].tolist() == [0.2, 0.0]
    assert sums[1].tolist() == [2.0, 2.0]


def test_update_keeps_empty_clusters():
    centroids = np.array([[0.0, 0.0], [5.0, 5.0]])
    sums = np.array([[2.0, 2.0], [0.0, 0.0]])
    counts = np.array([2.0, 0.0])
    new = _update(centroids, sums, counts)
    assert new[0].tolist() == [1.0, 1.0]
    assert new[1].tolist() == [5.0, 5.0]  # untouched


def test_reference_zero_iterations_returns_initial():
    points = generate_points(50, 3, seed=0)
    out = kmeans_reference(points, 3, iterations=0)
    assert np.array_equal(out, points[:3])


def test_reference_converges_on_separated_blobs():
    rng = np.random.default_rng(0)
    blob_a = rng.normal(0.0, 0.01, size=(50, 3))
    blob_b = rng.normal(10.0, 0.01, size=(50, 3)) + 10.0
    points = np.vstack([blob_a, blob_b])
    initial = np.array([[0.5, 0.5, 0.5], [15.0, 15.0, 15.0]])
    centroids = kmeans_reference(points, 2, iterations=5, initial=initial)
    assert np.allclose(centroids[0], blob_a.mean(axis=0), atol=0.05)
    assert np.allclose(centroids[1], blob_b.mean(axis=0), atol=0.05)


def test_reference_matches_scipy():
    scipy_vq = pytest.importorskip("scipy.cluster.vq")
    points = generate_points(300, 4, seed=3)
    initial = np.array(points[:4])
    ours = kmeans_reference(points, 4, iterations=15, initial=initial)
    theirs, _ = scipy_vq.kmeans(points, initial, iter=15, thresh=0.0)
    # scipy stops on convergence; compare cluster means loosely
    ours_sorted = ours[np.lexsort(ours.T)]
    theirs_sorted = theirs[np.lexsort(theirs.T)]
    assert np.allclose(ours_sorted, theirs_sorted, atol=1e-6)


def test_reference_validation():
    points = generate_points(10, 2)
    with pytest.raises(ValueError):
        kmeans_reference(points, 0)
    with pytest.raises(ValueError):
        kmeans_reference(points, 11)
    with pytest.raises(ValueError):
        kmeans_reference(points, 2, iterations=-1)
