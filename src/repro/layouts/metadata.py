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
  ``mask @ presence.T`` over the stream's vocabulary, mapped onto the
  categories once per stream and categories object
  (:meth:`~repro.workload.queries.CompiledQueries.vocab_on`) — every layout
  of one :class:`ColumnStore` shares its categories; then ``keep @ rows /
  n_rows`` (a float64 product, exact while row sums stay below 2^53), the
  fraction of rows in partitions the metadata cannot prove irrelevant.
  This is the service cost ``c(s, q)`` of the D-UMTS formulation.
  ``cost``, ``relevant_partitions`` and ``relevant_bids`` are the
  one-query calls through the same kernel.
- :class:`ColumnStore` — the frame's columns in the form the metadata pass
  reduces, built once per frame: the numeric columns as one (columns ×
  rows) float64 matrix, kept with NaN as +inf for minima and as −inf for
  maxima (one shared matrix when the frame has no NaN), and each
  categorical column as its categories plus its dictionary codes
  (``astype("category")``: a no-op on the dataset builders' ``Categorical``
  columns, a one-off coding of any other frame, such as a Spark batch's
  strings).
- :func:`build_materialized` — compute that metadata from a store plus a
  BID assignment, the same stats a Parquet writer would put in file
  footers. Rows are ordered by a stable argsort of the BIDs in the smallest
  unsigned dtype that holds them (numpy radix-sorts 8- and 16-bit keys);
  all numeric columns are reduced by one gather and one
  ``minimum.reduceat`` / ``maximum.reduceat`` each; each presence matrix
  is one ``bincount`` of ``bid * V + code``. A caller that materializes
  many layouts of one frame passes its store (the candidate generator
  does); any other call builds one for the frame it is given.

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

        A partition is kept unless some column's combined range misses its
        min/max or some column's combined IN values miss its distinct
        values. Columns without stats never prune.
        """
        keep = np.ones((len(stream), self.n_partitions), dtype=bool)
        for col, (rows, lo, hi) in stream.ranges.items():
            if col in self.mins:
                keep[rows] &= (self.maxs[col] >= lo[:, None]) & (self.mins[col] <= hi[:, None])
        for col, (vocab, rows, mask) in stream.ins.items():
            if col not in self.distinct:
                continue
            values, presence = self.distinct[col]
            # The stream's vocabulary as columns of ``presence``; a value
            # absent from the frame is in no partition.
            hit, idx = stream.vocab_on(col, values)
            pres = np.zeros((self.n_partitions, len(vocab)), dtype=np.float32)
            pres[:, hit] = presence[:, idx]
            keep[rows] &= mask @ pres.T > 0
        return keep

    def _cost(self, keep: np.ndarray) -> np.ndarray:
        """Fraction of rows in the kept partitions. The row sums are integers
        below 2^53, so the float64 product is exact."""
        if self.n_rows == 0:
            return np.zeros(keep.shape[:-1])
        return keep.astype(np.float64) @ self.rows.astype(np.float64) / self.n_rows

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


class ColumnStore:
    """One frame's columns as :func:`build_materialized` reduces them.

    - ``numeric_cols`` and ``lows`` / ``highs``: the numeric columns as
      (columns × rows) float64 matrices, NaN read as +inf in ``lows`` and
      as −inf in ``highs``, so that NaN never lowers a minimum nor raises a
      maximum. Without NaN both are the same matrix.
    - ``categorical``: per categorical column, its categories and its
      dictionary codes (pandas' small code dtype; −1 for a missing value),
      and the mask of the rows whose value is present, or ``None`` when
      none is missing.

    ``numeric_cols`` defaults to every non-categorical column but ``BID``.
    The frame is treated as immutable: a changed frame needs a new store.
    """

    def __init__(
        self,
        pdf: pd.DataFrame,
        categorical_cols: tuple[str, ...],
        numeric_cols: tuple[str, ...] | None = None,
    ) -> None:
        if numeric_cols is None:
            numeric_cols = tuple(c for c in pdf.columns if c not in categorical_cols and c != "BID")
        self.numeric_cols = tuple(numeric_cols)
        lows = np.empty((len(numeric_cols), len(pdf)))
        for j, c in enumerate(numeric_cols):
            lows[j] = pdf[c].to_numpy(dtype=np.float64)
        nan = np.isnan(lows)
        highs = lows
        if nan.any():
            highs = np.where(nan, -np.inf, lows)
            lows[nan] = np.inf
        self.lows, self.highs = lows, highs
        self.categorical: dict[str, tuple[pd.Index, np.ndarray, np.ndarray | None]] = {}
        for c in categorical_cols:
            cat = pdf[c].astype("category").array
            present = cat.codes >= 0
            self.categorical[c] = (cat.categories, cat.codes, None if present.all() else present)


def build_materialized(
    pdf: pd.DataFrame,
    bids: np.ndarray,
    *,
    name: str,
    categorical_cols: tuple[str, ...],
    numeric_cols: tuple[str, ...] | None = None,
    layout: object | None = None,
    store: ColumnStore | None = None,
) -> MaterializedLayout:
    """Compute partition metadata from data + a BID assignment.

    ``bids`` must be dense non-negative ints; empty partitions (ids never
    assigned) get zero rows and never match any predicate. ``numeric_cols``
    defaults to every non-categorical column in ``pdf``. ``store`` is the
    :class:`ColumnStore` of ``pdf``, to share across calls on one frame;
    when given, its columns are the ones reduced, and by default one is
    built for this call alone.
    """
    bids = np.asarray(bids)
    if len(bids) != len(pdf):
        raise ValueError("bids length must match the frame")
    if store is None:
        store = ColumnStore(pdf, categorical_cols, numeric_cols)
    n_parts = int(bids.max()) + 1 if len(bids) else 0

    rows = np.bincount(bids, minlength=n_parts).astype(np.int64)  # rejects a negative BID
    # A stable sort of keys of at most 16 bits is a radix sort.
    order = np.argsort(bids.astype(np.min_scalar_type(max(n_parts - 1, 0))), kind="stable")
    # Each non-empty partition is one contiguous slice of the sorted rows.
    filled = rows > 0
    starts = (np.cumsum(rows) - rows)[filled]

    # An empty partition, or one whose values are all NaN, keeps the empty
    # range (inf, -inf): no range predicate reads it.
    lo = np.full((len(store.numeric_cols), n_parts), np.inf)
    hi = np.full((len(store.numeric_cols), n_parts), -np.inf)
    if len(starts):
        lows = np.take(store.lows, order, axis=1)
        highs = lows if store.highs is store.lows else np.take(store.highs, order, axis=1)
        lo[:, filled] = np.minimum.reduceat(lows, starts, axis=1)
        hi[:, filled] = np.maximum.reduceat(highs, starts, axis=1)

    distinct: dict[str, tuple[pd.Index, np.ndarray]] = {}
    flat = bids.astype(np.intp, copy=False)
    for c, (categories, codes, present) in store.categorical.items():
        n_vals = len(categories)
        key = flat * n_vals + codes
        if present is not None:  # a missing value (code -1) is in no partition
            key = key[present]
        counts = np.bincount(key, minlength=n_parts * n_vals)
        distinct[c] = (categories, counts.reshape(n_parts, n_vals) > 0)

    return MaterializedLayout(
        name=name,
        n_partitions=n_parts,
        n_rows=len(pdf),
        rows=rows,
        mins=dict(zip(store.numeric_cols, lo)),
        maxs=dict(zip(store.numeric_cols, hi)),
        distinct=distinct,
        layout=layout,
    )
