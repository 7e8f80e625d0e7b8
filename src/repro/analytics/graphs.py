"""Network-science workload: triangle counting (paper §I, ref [12]).

The paper's introduction names network science among the domains that
"need to couple traditional computing with Hadoop/Spark based
analysis", citing Arifuzzaman et al.'s space-efficient parallel
triangle counting.  We implement the canonical distributed algorithm —
degree-ordered edge orientation + wedge join — as a Spark RDD pipeline,
validated against networkx.

Algorithm (the "node-iterator++" / edge-orientation scheme the cited
paper builds on):

1. orient each undirected edge from the lower-(degree, id) endpoint to
   the higher, producing a DAG — every triangle now has exactly one
   wedge ``a->b, a->c`` with a closing edge ``b->c``;
2. group oriented edges by source to make wedges;
3. join wedge endpoints against the oriented edge set; each hit is one
   triangle.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

Edge = Tuple[int, int]


def generate_graph(num_nodes: int, num_edges: int,
                   seed: int = 13) -> List[Edge]:
    """A random simple undirected graph as a deduplicated edge list."""
    if num_nodes < 2:
        raise ValueError("need at least 2 nodes")
    rng = np.random.default_rng(seed)
    edges: Set[Edge] = set()
    while len(edges) < num_edges:
        u, v = rng.integers(0, num_nodes, size=2)
        if u == v:
            continue
        edges.add((min(int(u), int(v)), max(int(u), int(v))))
    return sorted(edges)


def count_triangles_reference(edges: Sequence[Edge]) -> int:
    """Ground truth via networkx."""
    import networkx as nx
    graph = nx.Graph()
    graph.add_edges_from(edges)
    # nx.triangles counts per-node; every triangle is counted 3 times
    return sum(nx.triangles(graph).values()) // 3


def _ranks(edges: Sequence[Edge]) -> Dict[int, Tuple[int, int]]:
    """Total order on vertices by (degree, id)."""
    degree: Dict[int, int] = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    return {node: (d, node) for node, d in degree.items()}


def _orient(edges: Sequence[Edge]) -> List[Edge]:
    """Orient edges from rank-lower to rank-higher endpoint.

    Every triangle then has exactly one wedge ``a->b, a->c`` whose
    closing edge is oriented ``min_rank(b,c) -> max_rank(b,c)``.
    """
    rank = _ranks(edges)
    return [(u, v) if rank[u] < rank[v] else (v, u) for u, v in edges]


def count_triangles_spark(ctx, edges: Sequence[Edge],
                          num_partitions: int = 4):
    """Distributed triangle count over RDDs.  Generator -> int."""
    rank = _ranks(edges)
    oriented = _orient(edges)
    edge_rdd = ctx.parallelize(oriented, num_partitions)

    # wedges: for each source a with out-edges to b, c (rank(b) <
    # rank(c)), emit the candidate closing edge keyed for the join
    def wedges(group, _rank=rank):
        source, targets = group
        targets = sorted(set(targets), key=_rank.__getitem__)
        return [((b, c), source)
                for i, b in enumerate(targets)
                for c in targets[i + 1:]]

    wedge_rdd = edge_rdd.group_by_key(num_partitions).flat_map(wedges)
    closing_rdd = edge_rdd.map(lambda e: (e, True))
    matched = wedge_rdd.join(closing_rdd, num_partitions)
    count = yield from matched.count()
    return count
