"""MLlib-lite: distributed learning kernels over the RDD engine.

The paper repeatedly leans on MLlib as the exemplar of Hadoop-side
analytics ("advanced analytic tools, such as MLLib and SparkR", §II)
and notes its HPC lineage ("MLlib relies on HPC BLAS libraries", §V).
This module provides the same shape: models whose *distributed* part
is partial-sum aggregation over RDD partitions and whose *solver* is
dense linear algebra at the driver (NumPy -> BLAS — literally the HPC
code-reuse pattern §V describes).

* :class:`KMeansModel` — Lloyd's algorithm over an RDD of vectors;
  numerically identical to :func:`repro.analytics.kmeans_reference`.
* :class:`LinearRegressionModel` — least squares via distributed
  normal equations (X^T X and X^T y as partition partial sums).
* :func:`col_stats` — column means/variances/min/max in one pass
  (Statistics.colStats).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analytics.kmeans import _partial_sums, _update


@dataclass
class KMeansModel:
    """Fitted K-Means: centroids + assignment."""

    centroids: np.ndarray

    def predict(self, vector) -> int:
        """Index of the nearest centroid."""
        delta = self.centroids - np.asarray(vector, dtype=np.float64)
        return int(np.argmin((delta ** 2).sum(axis=1)))

    @classmethod
    def train(cls, rdd, k: int, iterations: int = 5,
              initial: Optional[np.ndarray] = None):
        """Fit over an RDD of vectors.  Generator -> KMeansModel.

        Each iteration is one RDD pass: partitions compute partial
        (sums, counts) against the broadcast centroids; the driver
        merges and updates.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if initial is None:
            head = yield from rdd.take(k)
            if len(head) < k:
                raise ValueError("need at least k vectors")
            centroids = np.array(head, dtype=np.float64)
        else:
            centroids = np.array(initial, dtype=np.float64)

        for _ in range(iterations):
            frozen = centroids.copy()

            def partials(part, _c=frozen):
                records = list(part)
                if not records:
                    return []
                return [_partial_sums(np.asarray(records, dtype=np.float64),
                                      _c)]

            parts = yield from rdd.map_partitions(partials).collect()
            if not parts:
                break
            sums = np.sum([p[0] for p in parts], axis=0)
            counts = np.sum([p[1] for p in parts], axis=0)
            centroids = _update(frozen, sums, counts)
        return cls(centroids=centroids)


@dataclass
class LinearRegressionModel:
    """Fitted least squares: weights (+ intercept as weights[-1])."""

    weights: np.ndarray

    def predict(self, features) -> float:
        x = np.append(np.asarray(features, dtype=np.float64), 1.0)
        return float(x @ self.weights)

    @classmethod
    def train(cls, rdd):
        """Fit over an RDD of ``(features, label)``.  Generator.

        The distributed part accumulates the normal equations
        (X^T X, X^T y) per partition; the dense solve happens at the
        driver through NumPy/BLAS.
        """

        def partials(part):
            rows = list(part)
            if not rows:
                return []
            X = np.array([np.append(np.asarray(f, dtype=np.float64), 1.0)
                          for f, _ in rows])
            y = np.array([label for _, label in rows], dtype=np.float64)
            return [(X.T @ X, X.T @ y)]

        parts = yield from rdd.map_partitions(partials).collect()
        if not parts:
            raise ValueError("cannot fit on an empty RDD")
        xtx = np.sum([p[0] for p in parts], axis=0)
        xty = np.sum([p[1] for p in parts], axis=0)
        weights, *_ = np.linalg.lstsq(xtx, xty, rcond=None)
        return cls(weights=weights)


@dataclass
class ColumnStats:
    """One-pass column statistics (Statistics.colStats)."""

    count: int
    mean: np.ndarray
    variance: np.ndarray
    min: np.ndarray
    max: np.ndarray


def col_stats(rdd):
    """Column statistics over an RDD of vectors.  Generator."""

    def partials(part):
        rows = list(part)
        if not rows:
            return []
        X = np.asarray(rows, dtype=np.float64)
        return [(len(X), X.sum(axis=0), (X ** 2).sum(axis=0),
                 X.min(axis=0), X.max(axis=0))]

    parts = yield from rdd.map_partitions(partials).collect()
    if not parts:
        raise ValueError("colStats of an empty RDD")
    count = sum(p[0] for p in parts)
    total = np.sum([p[1] for p in parts], axis=0)
    total_sq = np.sum([p[2] for p in parts], axis=0)
    mean = total / count
    # unbiased sample variance, as MLlib reports
    variance = (total_sq - count * mean ** 2) / max(1, count - 1)
    return ColumnStats(
        count=count, mean=mean, variance=variance,
        min=np.min([p[3] for p in parts], axis=0),
        max=np.max([p[4] for p in parts], axis=0))
