"""RDDs: lazy, partitioned, lineage-tracked collections.

Transformations build the DAG; nothing computes until an action.  All
``compute_partition`` methods are simulation generators so they can
charge I/O (shuffle fetches) to the hardware models while producing
real Python records.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional


class RDD:
    """Base class: lineage node with ``num_partitions`` partitions.

    RDD ids are allocated by the owning context (session-scoped), not a
    module-global counter, so a fresh context always numbers from 1 —
    what keeps independent sweep cells hermetic no matter what ran
    earlier in the process.
    """

    def __init__(self, ctx, num_partitions: int,
                 parent: Optional["RDD"] = None):
        self.ctx = ctx
        self.rdd_id = ctx.next_rdd_id()
        self.num_partitions = num_partitions
        self.parent = parent
        self._cached = False

    # -------------------------------------------------------- transformations
    def map(self, f: Callable[[Any], Any]) -> "RDD":
        """Element-wise transform (narrow)."""
        return MappedRDD(self, lambda it: [f(x) for x in it])

    def filter(self, f: Callable[[Any], bool]) -> "RDD":
        """Keep elements where ``f`` holds (narrow)."""
        return MappedRDD(self, lambda it: [x for x in it if f(x)])

    def flat_map(self, f: Callable[[Any], Iterable[Any]]) -> "RDD":
        """Map then flatten (narrow)."""
        return MappedRDD(self, lambda it: [y for x in it for y in f(x)])

    def map_partitions(self, f: Callable[[Iterable[Any]], Iterable[Any]]) -> "RDD":
        """Whole-partition transform (narrow)."""
        return MappedRDD(self, f)

    def union(self, other: "RDD") -> "RDD":
        """Concatenate two RDDs' partitions (narrow)."""
        return UnionRDD(self, other)

    def reduce_by_key(self, f: Callable[[Any, Any], Any],
                      num_partitions: Optional[int] = None) -> "RDD":
        """Merge values per key (wide).

        There is no map-side combine: every parent record is bucketed
        and written to the shuffle, and ``f`` runs on the reduce side
        only, so shuffle bytes are records x ``bytes_per_record``.
        """
        return ShuffledRDD(self, num_partitions or self.num_partitions,
                           combiner=f)

    def group_by_key(self, num_partitions: Optional[int] = None) -> "RDD":
        """Group values per key (wide)."""
        return ShuffledRDD(self, num_partitions or self.num_partitions,
                           combiner=None)

    def distinct(self) -> "RDD":
        """Deduplicate (wide, via reduce_by_key)."""
        return (self.map(lambda x: (x, None))
                .reduce_by_key(lambda a, b: a)
                .map(lambda kv: kv[0]))

    def sample(self, fraction: float, seed: int = 17) -> "RDD":
        """Bernoulli sample (narrow, deterministic per partition)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        import numpy as _np

        def sampler(it, _f=fraction, _s=seed):
            records = list(it)
            rng = _np.random.default_rng(_s)
            keep = rng.random(len(records)) < _f
            return [r for r, k in zip(records, keep, strict=True) if k]

        return MappedRDD(self, sampler)

    def cogroup(self, other: "RDD",
                num_partitions: Optional[int] = None) -> "RDD":
        """Group both RDDs by key: (k, (values_self, values_other)).

        Built on tagged union + group_by_key, so it reuses the shuffle
        machinery (wide).
        """
        left = self.map(lambda kv: (kv[0], (0, kv[1])))
        right = other.map(lambda kv: (kv[0], (1, kv[1])))

        def split(kv):
            key, tagged = kv
            mine = [v for tag, v in tagged if tag == 0]
            theirs = [v for tag, v in tagged if tag == 1]
            return (key, (mine, theirs))

        return left.union(right).group_by_key(num_partitions).map(split)

    def join(self, other: "RDD",
             num_partitions: Optional[int] = None) -> "RDD":
        """Inner join on keys: (k, (v_self, v_other)) pairs (wide)."""
        return self.cogroup(other, num_partitions).flat_map(
            lambda kv: [(kv[0], (a, b))
                        for a in kv[1][0] for b in kv[1][1]])

    def sort_by(self, keyfunc: Callable[[Any], Any],
                ascending: bool = True) -> "RDD":
        """Total sort by ``keyfunc``.

        Simplification vs. Spark's range-partitioned sort: everything
        shuffles to a single partition and sorts there (fine at
        simulation scale; documents itself as one wide stage).
        """
        tagged = self.map(lambda x: (keyfunc(x), x)).group_by_key(1)

        def emit(it):
            pairs = list(it)
            pairs.sort(key=lambda kv: kv[0], reverse=not ascending)
            return [x for _, values in pairs for x in values]

        return tagged.map_partitions(emit)

    def cache(self) -> "RDD":
        """Materialize partitions in executor memory after first compute."""
        self._cached = True
        return self

    # --------------------------------------------------------------- actions
    def collect(self):
        """All records.  Generator (drive with ``yield from`` or env.run)."""
        parts = yield from self.ctx.run_job(self)
        out: List[Any] = []
        for part in parts:
            out.extend(part)
        return out

    def count(self):
        """Number of records.  Generator."""
        parts = yield from self.ctx.run_job(self)
        return sum(len(p) for p in parts)

    def reduce(self, f: Callable[[Any, Any], Any]):
        """Fold all records with ``f``.  Generator."""
        records = yield from self.collect()
        if not records:
            raise ValueError("reduce of empty RDD")
        acc = records[0]
        for x in records[1:]:
            acc = f(acc, x)
        return acc

    def take(self, n: int):
        """First ``n`` records.  Generator."""
        records = yield from self.collect()
        return records[:n]

    def aggregate(self, zero: Any, seq_op: Callable[[Any, Any], Any],
                  comb_op: Callable[[Any, Any], Any]):
        """Per-partition fold with ``seq_op``, merged with ``comb_op``.
        Generator."""
        parts = yield from self.ctx.run_job(self)
        merged = zero
        for part in parts:
            acc = zero
            for record in part:
                acc = seq_op(acc, record)
            merged = comb_op(merged, acc)
        return merged

    def count_by_key(self):
        """Dict of key -> occurrence count (pairs RDD).  Generator."""
        pairs = yield from self.collect()
        counts: Dict[Any, int] = {}
        for k, _ in pairs:
            counts[k] = counts.get(k, 0) + 1
        return counts

    # ------------------------------------------------------------- plumbing
    def shuffle_dependencies(self) -> List["ShuffledRDD"]:
        """Direct wide dependencies of this RDD's narrow chain."""
        deps: List[ShuffledRDD] = []
        stack: List[RDD] = [self]
        while stack:
            rdd = stack.pop()
            for parent in rdd.parents():
                if isinstance(parent, ShuffledRDD):
                    deps.append(parent)
                else:
                    stack.append(parent)
        return deps

    def parents(self) -> List["RDD"]:
        return [self.parent] if self.parent is not None else []


class ParallelCollectionRDD(RDD):
    """An RDD from an in-memory collection, sliced evenly.

    Slices are *contiguous* (as in Spark), so ``collect`` preserves the
    input order and ``take(n)`` returns the first n elements.
    """

    def __init__(self, ctx, data: List[Any], num_partitions: int):
        super().__init__(ctx, num_partitions)
        base, extra = divmod(len(data), num_partitions)
        self._slices: List[List[Any]] = []
        start = 0
        for i in range(num_partitions):
            size = base + (1 if i < extra else 0)
            self._slices.append(list(data[start:start + size]))
            start += size

    def compute_partition(self, index: int, task_ctx):
        if False:  # pragma: no cover - make this a generator
            yield None
        return list(self._slices[index])


class MappedRDD(RDD):
    """Narrow transform of one parent (map/filter/flatMap/mapPartitions)."""

    def __init__(self, parent: RDD, f: Callable[[Iterable[Any]], Iterable[Any]]):
        super().__init__(parent.ctx, parent.num_partitions, parent=parent)
        self.f = f

    def compute_partition(self, index: int, task_ctx):
        records = yield from self.ctx.materialize(self.parent, index,
                                                  task_ctx)
        out = self.f(records)
        # The built-in transforms produce lists already; only user
        # map_partitions generators need materializing.
        return out if isinstance(out, list) else list(out)


class UnionRDD(RDD):
    """Concatenation: partitions of left followed by partitions of right."""

    def __init__(self, left: RDD, right: RDD):
        super().__init__(left.ctx, left.num_partitions + right.num_partitions)
        self.left = left
        self.right = right

    def parents(self) -> List[RDD]:
        return [self.left, self.right]

    def compute_partition(self, index: int, task_ctx):
        if index < self.left.num_partitions:
            records = yield from self.ctx.materialize(self.left, index,
                                                      task_ctx)
        else:
            records = yield from self.ctx.materialize(
                self.right, index - self.left.num_partitions, task_ctx)
        return records


class HdfsRDD(RDD):
    """An RDD backed by an HDFS file: one partition per block.

    Tasks read their block through a client bound to *their* node, so
    reads are node-local whenever the executor holds a replica — the
    locality story Spark-on-HDFS relies on.
    """

    def __init__(self, ctx, hdfs, path: str):
        meta = hdfs.namenode.file_meta(path)
        super().__init__(ctx, num_partitions=len(meta.blocks))
        self.hdfs = hdfs
        self.path = path
        self.blocks = list(meta.blocks)

    def compute_partition(self, index: int, task_ctx):
        client = self.hdfs.client(task_ctx.node.name)
        payload = yield from client.read_block(self.blocks[index])
        if payload is None:
            return []
        return list(payload)


class ShuffledRDD(RDD):
    """Wide dependency: hash-partitioned by key across the cluster.

    The parent stage's tasks write hash-bucketed map outputs to their
    node's local disk (registered with the context's shuffle manager);
    this RDD's tasks fetch their bucket from every map output, paying
    disk reads and network hops, then merge (with the optional
    ``combiner``, reduce_by_key semantics) or group (group_by_key).
    """

    def __init__(self, parent: RDD, num_partitions: int,
                 combiner: Optional[Callable[[Any, Any], Any]]):
        super().__init__(parent.ctx, num_partitions, parent=parent)
        self.combiner = combiner
        self.shuffle_id = self.rdd_id

    def compute_partition(self, index: int, task_ctx):
        pairs = yield from self.ctx.shuffle_fetch(self, index, task_ctx)
        combine = self.combiner
        if combine is not None:
            merged: Dict[Any, Any] = {}
            get = merged.get
            missing = object()
            for k, v in pairs:
                cur = get(k, missing)
                merged[k] = v if cur is missing else combine(cur, v)
            return list(merged.items())
        groups: Dict[Any, List[Any]] = defaultdict(list)
        for k, v in pairs:
            groups[k].append(v)
        return list(groups.items())
