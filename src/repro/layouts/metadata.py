"""Partition-level metadata and metadata-only query costing.

OREO "keeps track of different data layouts via partition-level metadata.
With information such as row count, range of values (or distinct values for
categorical columns) for each column in the partition, OREO is able to
estimate query costs incurred by different layouts without accessing the
underlying dataset" (§VI-A1). This module is that machinery:

- :class:`MaterializedLayout` — per-partition row counts, per-column
  min/max arrays (numeric) and distinct-value sets (categorical), with a
  vectorized ``cost(query)`` = fraction of rows in partitions that the
  metadata cannot prove irrelevant. This is the service cost ``c(s, q)``
  of the D-UMTS formulation and the basis of ``eval_skipped``.
- :func:`build_materialized` — compute that metadata from a pandas frame
  plus a BID assignment, the same stats a Parquet writer would put in
  file footers.

Pruning here is *sound by construction*: a partition is skipped only when
its min/max (or distinct set) is disjoint from a predicate, so skipping can
never change query results — tests assert this against row-level ground
truth, and the Spark integration asserts it against the DuckDB oracle.
Min/max ignore NaN, as Parquet statistics do: NaN satisfies no range
predicate, so no NaN row ever needs its partition read.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.workload.queries import InPredicate, Query, RangePredicate


@dataclass
class MaterializedLayout:
    """Metadata for one realized layout: stats for each of ``n_partitions``."""

    name: str
    n_partitions: int
    n_rows: int
    rows: np.ndarray  # (n_partitions,) row count per partition
    mins: dict[str, np.ndarray]  # numeric col -> (n_partitions,) min
    maxs: dict[str, np.ndarray]  # numeric col -> (n_partitions,) max
    distinct: dict[str, list[frozenset]]  # categorical col -> per-partition sets
    # The generator object that produced this layout (has .assign), if any.
    layout: object | None = field(default=None, repr=False, compare=False)

    def relevant_partitions(self, query: Query) -> np.ndarray:
        """Boolean mask over partitions that must be read for ``query``."""
        keep = np.ones(self.n_partitions, dtype=bool)
        for p in query.predicates:
            if isinstance(p, RangePredicate):
                if p.col not in self.mins:
                    continue  # no stats for this column: cannot prune
                if p.lo is not None:
                    keep &= self.maxs[p.col] >= p.lo
                if p.hi is not None:
                    keep &= self.mins[p.col] <= p.hi
            elif isinstance(p, InPredicate):
                sets = self.distinct.get(p.col)
                if sets is None:
                    continue
                keep &= np.fromiter(
                    (not p.values.isdisjoint(s) for s in sets),
                    dtype=bool,
                    count=self.n_partitions,
                )
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown predicate type {type(p)}")
        return keep

    def relevant_bids(self, query: Query) -> list[int]:
        """Partition ids that must be read — the ``BID IN (...)`` list."""
        return np.flatnonzero(self.relevant_partitions(query)).tolist()

    def cost(self, query: Query) -> float:
        """Service cost c(s, q): fraction of rows in non-skipped partitions."""
        if self.n_rows == 0:
            return 0.0
        keep = self.relevant_partitions(query)
        return float(self.rows[keep].sum() / self.n_rows)

    def eval_skipped(self, queries: list[Query] | tuple[Query, ...]) -> float:
        """Average fraction of data *skipped* over ``queries`` (paper API)."""
        if not queries:
            return 0.0
        return float(np.mean([1.0 - self.cost(q) for q in queries]))

    def cost_vector(self, queries: list[Query] | tuple[Query, ...]) -> np.ndarray:
        """Per-query cost vector, used by the layout manager's ε-distance."""
        return np.asarray([self.cost(q) for q in queries], dtype=float)


def build_materialized(
    pdf: pd.DataFrame,
    bids: np.ndarray,
    *,
    name: str,
    categorical_cols: tuple[str, ...],
    numeric_cols: tuple[str, ...] | None = None,
    layout: object | None = None,
) -> MaterializedLayout:
    """Compute partition metadata from data + a BID assignment.

    ``bids`` must be dense non-negative ints; empty partitions (ids never
    assigned) get zero rows and never match any predicate. ``numeric_cols``
    defaults to every non-categorical column in ``pdf``.
    """
    bids = np.asarray(bids)
    if len(bids) != len(pdf):
        raise ValueError("bids length must match the frame")
    n_parts = int(bids.max()) + 1 if len(bids) else 0
    if numeric_cols is None:
        numeric_cols = tuple(
            c for c in pdf.columns if c not in categorical_cols and c != "BID"
        )

    rows = np.bincount(bids, minlength=n_parts).astype(np.int64)
    order = np.argsort(bids, kind="stable")
    sorted_bids = bids[order]
    # Partition boundaries in the sorted order: contiguous slices per BID.
    bounds = np.searchsorted(sorted_bids, np.arange(n_parts + 1))

    # NaN-ignoring reductions over each non-empty partition's slice: NaN never
    # satisfies a range predicate, so an all-NaN (or empty) partition keeps
    # the empty range (inf, -inf) and is never read for one.
    filled = rows > 0
    starts = bounds[:-1][filled]
    mins: dict[str, np.ndarray] = {}
    maxs: dict[str, np.ndarray] = {}
    for c in numeric_cols:
        v = pdf[c].to_numpy(dtype=np.float64)[order]
        lo = np.full(n_parts, np.inf)
        hi = np.full(n_parts, -np.inf)
        if len(starts):
            lo[filled] = np.fmin.reduceat(v, starts)
            hi[filled] = np.fmax.reduceat(v, starts)
        mins[c] = np.where(np.isnan(lo), np.inf, lo)
        maxs[c] = np.where(np.isnan(hi), -np.inf, hi)

    distinct: dict[str, list[frozenset]] = {}
    for c in categorical_cols:
        v = pdf[c].to_numpy()[order]
        sets = []
        for b in range(n_parts):
            s, e = bounds[b], bounds[b + 1]
            sets.append(frozenset(v[s:e]) if e > s else frozenset())
        distinct[c] = sets

    return MaterializedLayout(
        name=name,
        n_partitions=n_parts,
        n_rows=len(pdf),
        rows=rows,
        mins=mins,
        maxs=maxs,
        distinct=distinct,
        layout=layout,
    )
