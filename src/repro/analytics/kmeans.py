"""K-Means: reference implementation + the paper's task decompositions.

All variants implement Lloyd's algorithm with a fixed iteration count
(the paper runs 2 iterations) over the same kernel (``_partial_sums``),
from the same deterministic start (initial centroids are the first
``k`` points).  Labels are identical across engines; centroids agree to
``np.allclose``, not bit for bit, because each engine sums its partial
results over a different chunking (32 map units vs one array).

The assignment kernel is one GEMM per row block and needs O(block)
memory beyond its inputs and the label vector — never the (points x
clusters) distance matrix; partial sums are ``np.bincount`` reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.description import ComputeUnitDescription


# --------------------------------------------------------------- reference
#: Elements in one (rows x clusters) distance tile: 2**17 float64 = 1 MiB, so
#: the GEMM's output is still in cache when argmin reads it (the fastest of
#: 2**14..2**19 on all three paper scenarios).
_TILE_ELEMENTS = 1 << 17


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid for every point (lowest on a tie).

    Uses the ||p-c||^2 = ||p||^2 - 2 p.c + ||c||^2 expansion — one GEMM,
    no (points x clusters x dim) temporary — over blocks of rows, so the
    only scratch is one reused tile of at most ``_TILE_ELEMENTS``
    distances (a single row if there are more clusters than that).
    """
    n, k = len(points), len(centroids)
    ct = -2.0 * centroids.T                            # (dim, k)
    c_norm = (centroids * centroids).sum(axis=1)       # (k,)
    labels = np.empty(n, dtype=np.intp)
    rows = max(1, _TILE_ELEMENTS // k)
    tile = np.empty((min(rows, n), k), dtype=np.result_type(points, ct))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        dist = np.matmul(points[lo:hi], ct, out=tile[:hi - lo])
        dist += c_norm
        np.argmin(dist, axis=1, out=labels[lo:hi])
    return labels


def _partial_sums(points: np.ndarray, centroids: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """(per-cluster coordinate sums, per-cluster counts) for one chunk."""
    k = centroids.shape[0]
    labels = _assign(points, centroids)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    sums = np.zeros_like(centroids)
    for d in range(points.shape[1]):
        sums[:, d] = np.bincount(labels, weights=points[:, d], minlength=k)
    return sums, counts


def _update(centroids: np.ndarray, sums: np.ndarray,
            counts: np.ndarray) -> np.ndarray:
    """New centroids; empty clusters keep their previous position."""
    new = centroids.copy()
    nonzero = counts > 0
    new[nonzero] = sums[nonzero] / counts[nonzero, None]
    return new


def kmeans_reference(points: np.ndarray, k: int, iterations: int = 2,
                     initial: Optional[np.ndarray] = None) -> np.ndarray:
    """Ground-truth Lloyd's algorithm (single-process, vectorized)."""
    if k < 1 or iterations < 0:
        raise ValueError("k >= 1 and iterations >= 0 required")
    if len(points) < k:
        raise ValueError("need at least k points")
    centroids = np.array(points[:k], dtype=np.float64) if initial is None \
        else np.array(initial, dtype=np.float64)
    for _ in range(iterations):
        sums, counts = _partial_sums(points, centroids)
        centroids = _update(centroids, sums, counts)
    return centroids


# ------------------------------------------------------------- cost model
@dataclass(frozen=True)
class KMeansCost:
    """Maps scenario size to Compute-Unit resource demands.

    Values are calibrated in :mod:`repro.experiments.calibration` so
    Figure 6 magnitudes come out paper-shaped; the *structure* (compute
    ∝ points x clusters, I/O ∝ points) is what matters.
    """

    #: reference-CPU seconds per point-cluster-dim product (map side).
    cpu_per_pcd: float = 2.2e-8
    #: input bytes per point per iteration (text records, as in the
    #: paper's Hadoop-style K-Means).
    bytes_per_point_in: float = 62.0
    #: shuffle bytes per point (map output: point-to-cluster pairs).
    bytes_per_point_shuffle: float = 24.0
    #: task memory: JVM/base + per-point working set (bytes -> MB).
    base_memory_mb: int = 1400
    memory_bytes_per_point: float = 1300.0

    def map_unit(self, chunk_points: int, k: int, dim: int
                 ) -> Tuple[float, float, float, int]:
        """(cpu_seconds, input_bytes, output_bytes, memory_mb)."""
        cpu = self.cpu_per_pcd * chunk_points * k * dim
        inp = self.bytes_per_point_in * chunk_points
        out = self.bytes_per_point_shuffle * chunk_points
        mem = self.base_memory_mb + int(
            self.memory_bytes_per_point * chunk_points / 2 ** 20)
        return cpu, inp, out, mem

    def reduce_unit(self, total_points: int, ntasks: int, k: int, dim: int
                    ) -> Tuple[float, float, float, int]:
        """(cpu_seconds, input_bytes, output_bytes, memory_mb)."""
        cpu = 2e-9 * total_points * dim
        inp = self.bytes_per_point_shuffle * total_points
        out = 64.0 * k * dim
        return cpu, inp, out, self.base_memory_mb


# --------------------------------------------------- pilot decomposition
def run_kmeans_pilot(umgr, points: np.ndarray, k: int, ntasks: int,
                     iterations: int = 2,
                     cost: Optional[KMeansCost] = None,
                     initial: Optional[np.ndarray] = None,
                     cache_in_memory: bool = False):
    """Run K-Means through a Unit-Manager.  Simulation generator.

    Per iteration: ``ntasks`` map units (real partial sums over chunks,
    with modeled compute and I/O) and one reduce unit (real centroid
    update).  Returns ``(centroids, all_units)``.

    Works identically against plain (fork/Lustre) and YARN pilots —
    that is the paper's point: the application code does not change,
    only the pilot's agent configuration.

    ``cache_in_memory`` models the Tachyon/Spark pattern the paper's
    future work proposes for iterative algorithms (§V): the first
    iteration reads chunks from the backend's storage, later
    iterations serve them from the node's in-memory tier.
    """
    cost = cost or KMeansCost()
    dim = points.shape[1]
    chunks = np.array_split(points, ntasks)
    centroids = np.array(points[:k], dtype=np.float64) if initial is None \
        else np.array(initial, dtype=np.float64)
    all_units = []

    for iteration in range(iterations):
        frozen = centroids.copy()
        tier = ("memory" if cache_in_memory and iteration > 0
                else "default")
        map_descs = []
        for chunk in chunks:
            cpu, inp, out, mem = cost.map_unit(len(chunk), k, dim)
            map_descs.append(ComputeUnitDescription(
                executable="python", arguments=("kmeans_map.py",),
                name="kmeans-map", cores=1, memory_mb=mem,
                cpu_seconds=cpu, input_bytes=inp, output_bytes=out,
                input_tier=tier,
                function=_partial_sums, args=(chunk, frozen)))
        map_units = umgr.submit_units(map_descs)
        all_units.extend(map_units)
        yield umgr.wait_units(map_units)
        failed = [u for u in map_units if u.state.value != "Done"]
        if failed:
            raise RuntimeError(
                f"{len(failed)} map units failed: {failed[0].stderr}")
        partials = [u.result for u in map_units]

        cpu, inp, out, mem = cost.reduce_unit(len(points), ntasks, k, dim)

        def reduce_fn(prev=frozen, parts=tuple(partials)):
            sums = np.sum([p[0] for p in parts], axis=0)
            counts = np.sum([p[1] for p in parts], axis=0)
            return _update(prev, sums, counts)

        reduce_units = umgr.submit_units(ComputeUnitDescription(
            executable="python", arguments=("kmeans_reduce.py",),
            name="kmeans-reduce", cores=1, memory_mb=mem,
            cpu_seconds=cpu, input_bytes=inp, output_bytes=out,
            function=reduce_fn))
        all_units.extend(reduce_units)
        yield umgr.wait_units(reduce_units)
        if reduce_units[0].state.value != "Done":
            raise RuntimeError(
                f"reduce unit failed: {reduce_units[0].stderr}")
        centroids = reduce_units[0].result

    return centroids, all_units


# --------------------------------------------------------- Spark variant
def run_kmeans_spark(ctx, points: np.ndarray, k: int,
                     iterations: int = 2, num_partitions: int = 4,
                     initial: Optional[np.ndarray] = None):
    """K-Means over cached Spark RDDs.  Generator returning centroids.

    The memory-centric variant the paper motivates Spark with: the
    point set is cached after the first materialization, so later
    iterations skip the (re)compute of the base partitions.
    """
    dim = points.shape[1]
    chunks = [np.asarray(c) for c in np.array_split(points, num_partitions)]
    rdd = ctx.parallelize(chunks, num_partitions).cache()
    centroids = np.array(points[:k], dtype=np.float64) if initial is None \
        else np.array(initial, dtype=np.float64)

    for _ in range(iterations):
        frozen = centroids.copy()
        partials = yield from (
            rdd.map(lambda chunk, _c=frozen: _partial_sums(chunk, _c))
            .collect())
        sums = np.sum([p[0] for p in partials], axis=0)
        counts = np.sum([p[1] for p in partials], axis=0)
        centroids = _update(frozen, sums, counts)

    return centroids
