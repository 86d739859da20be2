"""Partition-level metadata and metadata-only query costing.

OREO "keeps track of different data layouts via partition-level metadata.
With information such as row count, range of values (or distinct values for
categorical columns) for each column in the partition, OREO is able to
estimate query costs incurred by different layouts without accessing the
underlying dataset" (§VI-A1). This module is that machinery:

- :class:`MaterializedLayout` — per-partition row counts, per-column
  min/max arrays (numeric) and, per categorical column, the frame's
  categories with a (P × V) boolean presence matrix: entry ``[p, v]`` says
  whether category ``v`` occurs in partition ``p``.
  ``cost_vector`` costs a whole compiled query stream
  (:func:`~repro.workload.queries.compile_queries`) in one pass: a (Q × P)
  keep mask, starting all true, narrowed predicate by predicate on only the
  rows of the queries that carry it (``keep[rows] &= …``): broadcast
  comparisons against the min/max arrays and, per categorical column,
  ``mask @ presence.T`` after one ``get_indexer`` maps the stream's
  vocabulary onto the categories; then ``keep @ rows / n_rows``, the
  fraction of rows in partitions the metadata cannot prove irrelevant.
  This is the service cost ``c(s, q)`` of the D-UMTS formulation.
  ``cost``, ``relevant_partitions`` and ``relevant_bids`` are the
  one-query calls through the same kernel.
- :func:`build_materialized` — compute that metadata from a pandas frame
  plus a BID assignment, the same stats a Parquet writer would put in
  file footers. Categorical columns are read as dictionary codes through
  ``astype("category")``: a no-op on the dataset builders' ``Categorical``
  columns, a one-off coding of any other frame (a Spark batch's strings).

Pruning here is *sound by construction*: a partition is skipped only when
its min/max (or distinct set) is disjoint from a predicate, so skipping can
never change query results — tests assert this against row-level ground
truth, and the Spark integration asserts it against the DuckDB oracle.
Min/max ignore NaN, as Parquet statistics do: NaN satisfies no range
predicate, so no NaN row ever needs its partition read. Missing
categorical values are in no partition's presence row, as no IN list
matches them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.workload.queries import CompiledQueries, Query, compile_queries


@dataclass
class MaterializedLayout:
    """Metadata for one realized layout: stats for each of ``n_partitions``."""

    name: str
    n_partitions: int
    n_rows: int
    rows: np.ndarray  # (n_partitions,) row count per partition
    mins: dict[str, np.ndarray]  # numeric col -> (n_partitions,) min
    maxs: dict[str, np.ndarray]  # numeric col -> (n_partitions,) max
    # categorical col -> (categories, (n_partitions, len(categories)) presence)
    distinct: dict[str, tuple[pd.Index, np.ndarray]]
    # The generator object that produced this layout (has .assign), if any.
    layout: object | None = field(default=None, repr=False, compare=False)

    def _keep(self, stream: CompiledQueries) -> np.ndarray:
        """(Q, P) mask of the partitions each query of ``stream`` must read.

        A partition is kept unless some predicate's range misses its min/max
        or some IN predicate's values miss its distinct values. Columns
        without stats never prune.
        """
        keep = np.ones((len(stream), self.n_partitions), dtype=bool)
        for col, (rows, lo, hi) in stream.ranges.items():
            if col in self.mins:
                keep[rows] &= (self.maxs[col] >= lo[:, None]) & (self.mins[col] <= hi[:, None])
        for col, (vocab, slots) in stream.ins.items():
            if col not in self.distinct:
                continue
            values, presence = self.distinct[col]
            # The stream's vocabulary as columns of ``presence``; a value
            # absent from the frame is in no partition.
            idx = values.get_indexer(vocab)
            hit = idx >= 0
            pres = np.zeros((self.n_partitions, len(vocab)), dtype=np.float32)
            pres[:, hit] = presence[:, idx[hit]]
            for rows, mask in slots:
                keep[rows] &= mask @ pres.T > 0
        return keep

    def _cost(self, keep: np.ndarray) -> np.ndarray:
        """Fraction of rows in the kept partitions: an exact integer row sum."""
        if self.n_rows == 0:
            return np.zeros(keep.shape[:-1])
        return keep.astype(np.int64) @ self.rows / self.n_rows

    def relevant_partitions(self, query: Query) -> np.ndarray:
        """Boolean mask over partitions that must be read for ``query``."""
        return self._keep(compile_queries((query,)))[0]

    def relevant_bids(self, query: Query) -> list[int]:
        """Partition ids that must be read — the ``BID IN (...)`` list."""
        return np.flatnonzero(self.relevant_partitions(query)).tolist()

    def cost(self, query: Query) -> float:
        """Service cost c(s, q): fraction of rows in non-skipped partitions."""
        return float(self._cost(self.relevant_partitions(query)))

    def cost_vector(self, stream: CompiledQueries) -> np.ndarray:
        """Service cost of every query of a stream compiled by
        :func:`compile_queries`, in one pass."""
        return self._cost(self._keep(stream))


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

    distinct: dict[str, tuple[pd.Index, np.ndarray]] = {}
    for c in categorical_cols:
        cat = pdf[c].astype("category").array
        codes = cat.codes
        present = codes >= 0  # a missing value has code -1
        presence = np.zeros((n_parts, len(cat.categories)), dtype=bool)
        presence[bids[present], codes[present]] = True
        distinct[c] = (cat.categories, presence)

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
