"""Spark SQL-lite: DataFrames over the RDD engine.

SAGA-Hadoop's contract (paper §III-A) is that "an application written
for YARN (e.g. MapReduce) or Spark (e.g. PySpark, DataFrame and MLlib
applications) can be executed on HPC resources" — so the Spark
substrate carries a DataFrame layer: named-column rows (dicts) with
the core relational verbs, each compiling down to RDD operations (and
therefore to the same simulated stages, shuffles and I/O).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

from repro.spark.rdd import RDD

Row = Dict[str, Any]

#: Aggregations supported by ``group_by(...).agg(...)``.
_AGGREGATES = {
    "sum": lambda values: sum(values),
    "count": lambda values: len(values),
    "avg": lambda values: sum(values) / len(values) if values else None,
    "min": lambda values: min(values) if values else None,
    "max": lambda values: max(values) if values else None,
}


class GroupedData:
    """The result of ``DataFrame.group_by``: waiting for ``agg``."""

    def __init__(self, df: "DataFrame", key: str):
        self._df = df
        self._key = key

    def agg(self, aggregations: Dict[str, str]) -> "DataFrame":
        """Aggregate columns: ``{"price": "avg", "qty": "sum"}``.

        Output rows carry the group key plus ``<col>_<agg>`` columns.
        """
        for how in aggregations.values():
            if how not in _AGGREGATES:
                raise ValueError(
                    f"unknown aggregate {how!r}; known: "
                    f"{sorted(_AGGREGATES)}")
        key = self._key
        items = tuple(aggregations.items())

        def to_pair(row: Row):
            return (row[key], row)

        def fold(group):
            group_key, rows = group
            out: Row = {key: group_key}
            for column, how in items:
                values = [r[column] for r in rows if column in r]
                out[f"{column}_{how}"] = _AGGREGATES[how](values)
            return out

        rdd = self._df._rdd.map(to_pair).group_by_key().map(fold)
        return DataFrame(rdd)

    def count(self) -> "DataFrame":
        """Rows per group, as ``{key, count}`` rows."""
        key = self._key
        rdd = (self._df._rdd.map(lambda row: (row[key], 1))
               .reduce_by_key(lambda a, b: a + b)
               .map(lambda kv: {key: kv[0], "count": kv[1]}))
        return DataFrame(rdd)


class DataFrame:
    """A lazily-evaluated collection of dict rows."""

    def __init__(self, rdd: RDD):
        self._rdd = rdd

    # -------------------------------------------------------- transforms
    def select(self, *columns: str) -> "DataFrame":
        """Keep only the named columns."""
        cols = tuple(columns)
        return DataFrame(self._rdd.map(
            lambda row: {c: row[c] for c in cols}))

    def where(self, predicate: Callable[[Row], bool]) -> "DataFrame":
        """Keep rows where ``predicate(row)`` holds."""
        return DataFrame(self._rdd.filter(predicate))

    filter = where

    def with_column(self, name: str,
                    fn: Callable[[Row], Any]) -> "DataFrame":
        """Add (or replace) a derived column."""
        return DataFrame(self._rdd.map(
            lambda row: {**row, name: fn(row)}))

    def group_by(self, key: str) -> GroupedData:
        """Group rows by one column's value."""
        return GroupedData(self, key)

    def join(self, other: "DataFrame", on: str) -> "DataFrame":
        """Inner equi-join on one column (wide)."""
        left = self._rdd.map(lambda row: (row[on], row))
        right = other._rdd.map(lambda row: (row[on], row))
        return DataFrame(left.join(right).map(
            lambda kv: {**kv[1][0], **kv[1][1]}))

    def order_by(self, key: str, ascending: bool = True) -> "DataFrame":
        """Total sort by one column."""
        return DataFrame(self._rdd.sort_by(
            lambda row: row[key], ascending=ascending))

    # ----------------------------------------------------------- actions
    def collect(self):
        """All rows.  Generator."""
        rows = yield from self._rdd.collect()
        return rows

    def count(self):
        """Number of rows.  Generator."""
        n = yield from self._rdd.count()
        return n

    def show(self, n: int = 10):
        """First ``n`` rows rendered as a text table.  Generator."""
        rows = yield from self._rdd.take(n)
        if not rows:
            return "(empty)"
        columns = sorted({c for row in rows for c in row})
        widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows))
                  for c in columns}
        header = " | ".join(c.ljust(widths[c]) for c in columns)
        sep = "-+-".join("-" * widths[c] for c in columns)
        body = [" | ".join(str(r.get(c, "")).rjust(widths[c])
                           for c in columns) for r in rows]
        return "\n".join([header, sep] + body)


def create_dataframe(ctx, rows: Sequence[Row],
                     num_partitions: Optional[int] = None) -> DataFrame:
    """Build a DataFrame from local dict rows."""
    rows = list(rows)
    for row in rows:
        if not isinstance(row, dict):
            raise TypeError(f"rows must be dicts, got {type(row).__name__}")
    return DataFrame(ctx.parallelize(rows, num_partitions))
