"""Application workloads: K-Means (paper §IV-B) and MD trajectory analysis.

K-Means is the paper's evaluation workload.  It is implemented here
two ways, both computing *real* NumPy results validated against a
vectorized reference implementation:

* :func:`run_kmeans_pilot` — the paper's decomposition: per iteration,
  N map Compute-Units (partial sums over point chunks) and one reduce
  Compute-Unit (centroid update), submitted through the Unit-Manager to
  a plain (Lustre-bound) or YARN (local-disk) pilot;
* :func:`run_kmeans_spark` — Spark RDD version with cached points
  (the memory-centric variant).

:mod:`~repro.analytics.trajectory` covers the future-work workload
(§V): molecular-dynamics trajectory analysis (RMSD, radius of
gyration) over trajectory chunks as Compute-Units.
"""

from repro.analytics.adaptive import (
    coverage,
    pick_seeds,
    run_adaptive_sampling,
    simulate_walker,
)
from repro.analytics.datagen import generate_points
from repro.analytics.genomics import (
    count_kmers_mapreduce,
    count_kmers_reference,
    generate_reads,
)
from repro.analytics.graphs import (
    count_triangles_reference,
    count_triangles_spark,
    generate_graph,
)
from repro.analytics.kmeans import (
    KMeansCost,
    kmeans_reference,
    run_kmeans_pilot,
    run_kmeans_spark,
)
from repro.analytics.trajectory import (
    radius_of_gyration,
    rmsd_to_reference,
    run_trajectory_analysis,
    synthesize_trajectory,
)

__all__ = [
    "KMeansCost",
    "count_kmers_mapreduce",
    "count_kmers_reference",
    "count_triangles_reference",
    "count_triangles_spark",
    "coverage",
    "generate_graph",
    "generate_points",
    "generate_reads",
    "pick_seeds",
    "run_adaptive_sampling",
    "simulate_walker",
    "kmeans_reference",
    "radius_of_gyration",
    "rmsd_to_reference",
    "run_kmeans_pilot",
    "run_kmeans_spark",
    "run_trajectory_analysis",
    "synthesize_trajectory",
]
