"""Property-based tests: workloads vs their independent references."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import (
    count_kmers_reference,
    generate_points,
    kmeans_reference,
)
from repro.analytics.genomics import kmers_of
from repro.analytics.kmeans import _partial_sums, _update


@given(reads=st.lists(st.text(alphabet="ACGT", min_size=1, max_size=30),
                      min_size=0, max_size=15),
       k=st.integers(1, 8))
@settings(max_examples=60)
def test_kmer_counts_conserve_and_match_counter(reads, k):
    from collections import Counter
    counts = count_kmers_reference(reads, k)
    expected = Counter()
    for read in reads:
        for i in range(len(read) - k + 1):
            expected[read[i:i + k]] += 1
    assert counts == dict(expected)
    assert sum(counts.values()) == sum(
        max(0, len(r) - k + 1) for r in reads)


@given(read=st.text(alphabet="ACGT", min_size=0, max_size=50),
       k=st.integers(1, 10))
@settings(max_examples=60)
def test_kmers_of_windows(read, k):
    kmers = kmers_of(read, k)
    assert len(kmers) == max(0, len(read) - k + 1)
    assert all(len(x) == k for x in kmers)
    for i, kmer in enumerate(kmers):
        assert read[i:i + k] == kmer


@given(n=st.integers(10, 200), k=st.integers(1, 5),
       seed=st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_kmeans_partial_sums_compose(n, k, seed):
    """Partial sums over any split equal the whole-data sums."""
    points = generate_points(n, k, seed=seed)
    centroids = np.array(points[:k])
    whole_sums, whole_counts = _partial_sums(points, centroids)
    split = max(1, n // 3)
    parts = [points[:split], points[split:]]
    part_sums = sum(_partial_sums(p, centroids)[0] for p in parts
                    if len(p))
    part_counts = sum(_partial_sums(p, centroids)[1] for p in parts
                      if len(p))
    assert np.allclose(whole_sums, part_sums)
    assert np.allclose(whole_counts, part_counts)


@given(n=st.integers(5, 100), k=st.integers(1, 4),
       iters=st.integers(0, 4), seed=st.integers(0, 50))
@settings(max_examples=30, deadline=None)
def test_kmeans_iterations_never_increase_inertia(n, k, iters, seed):
    """Lloyd's algorithm property: within-cluster SSE is non-increasing."""
    points = generate_points(n, k, seed=seed)

    def inertia(centroids):
        d = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        return float(d.min(axis=1).sum())

    prev = None
    for i in range(iters + 1):
        centroids = kmeans_reference(points, k, iterations=i)
        current = inertia(centroids)
        if prev is not None:
            assert current <= prev + 1e-9
        prev = current


@given(k=st.integers(1, 6), dim=st.integers(1, 4),
       seed=st.integers(0, 50))
@settings(max_examples=30)
def test_update_preserves_shape_and_empty_clusters(k, dim, seed):
    rng = np.random.default_rng(seed)
    centroids = rng.uniform(size=(k, dim))
    counts = rng.integers(0, 3, size=k).astype(float)
    sums = rng.uniform(size=(k, dim)) * counts[:, None]
    new = _update(centroids, sums, counts)
    assert new.shape == centroids.shape
    for j in range(k):
        if counts[j] == 0:
            assert np.array_equal(new[j], centroids[j])
