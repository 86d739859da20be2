"""Workload-aware Z-order layout (Morton order; paper refs [16], §VI-A1).

The paper "use[s] Z-ordering on user-defined columns to split the dataset
into equal-sized partitions. To make Z-ordering workload-aware, we use the
top three most queried columns in the sliding window". We reproduce that:

1. pick the ``n_cols`` most frequently filtered columns in the window,
2. quantile-rank each chosen column into ``2^bits`` buckets, using
   boundaries computed from a data sample: numpy's ``linear`` quantiles,
   taken from one sort of the column's non-NaN values
   (:func:`sorted_quantiles`). NaN rows rank past the last boundary, into
   the top bucket. A categorical column is ranked by the lexicographic
   order of the values present in the sample; a missing value, or one the
   sample lacks, takes the top rank. Rows are ranked through their
   dictionary codes (``astype("category")``): one lookup array over the
   frame's categories, indexed by the codes,
3. interleave the bucket bits into a Morton code and split its sorted
   order into ``k`` equal partitions via precomputed code boundaries.

The window enters a build only through step 1, so a Z-order layout is
determined by its column tuple (and the sample): two windows with the same
top columns give the same layout.

Assignment is again a pure function of row values (quantile boundaries +
z-code boundaries are stored in the layout), reusable in the simulator and
inside Spark.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.workload.queries import Query

BITS = 10  # per-column resolution of the Morton code
N_COLS = 3  # columns a layout orders on: the window's top three (§VI-A1)


def top_queried_columns(queries: list[Query] | tuple[Query, ...], n_cols: int = N_COLS) -> tuple[str, ...]:
    """The ``n_cols`` most frequently filtered columns (ties: lexicographic)."""
    counts = Counter(p.col for q in queries for p in q.predicates)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(c for c, _ in ranked[:n_cols])


def sorted_quantiles(values: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """``np.quantile(values, qs)`` (method ``linear``), bit for bit, from one sort.

    ``np.quantile`` partitions around two kth values per level, which for
    the 1023 Z-order levels costs far more than one ``np.sort``. This applies
    numpy's formula to the sorted values: virtual index ``(n - 1) * q``,
    neighbours at its floor and floor + 1 (both the last value from index
    ``n - 1`` on), and the lerp that computes from the upper neighbour when
    the weight is ≥ 0.5. ``values`` must be non-empty and free of NaN, and
    every ``q`` in [0, 1].
    """
    arr = np.sort(values)
    n = len(arr)
    virtual = (n - 1) * qs
    prev = np.floor(virtual)
    nxt = prev + 1
    above = virtual >= n - 1
    prev[above] = nxt[above] = -1
    prev = prev.astype(np.intp)
    nxt = nxt.astype(np.intp)
    gamma = virtual - prev
    a, b = arr[prev], arr[nxt]
    diff = np.subtract(b, a)
    out = np.add(a, diff * gamma)
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def _interleave(codes: list[np.ndarray], bits: int) -> np.ndarray:
    """Bit-interleave equal-length integer arrays into one Morton code."""
    z = np.zeros(len(codes[0]), dtype=np.int64)
    n = len(codes)
    for b in range(bits):
        for j, c in enumerate(codes):
            z |= ((c >> b) & 1).astype(np.int64) << (b * n + j)
    return z


@dataclass(frozen=True)
class ZOrderLayout:
    """Z-order on ``cols`` with frozen rank boundaries and z-code cuts."""

    cols: tuple[str, ...]
    # Per column: for numeric, ascending quantile boundaries (len 2^bits - 1);
    # for categorical, a mapping value -> code.
    rank_bounds: tuple
    z_cuts: tuple[int, ...]  # interior boundaries of the k partitions
    name: str = "zorder"

    @property
    def n_partitions(self) -> int:
        return len(self.z_cuts) + 1

    def _codes(self, pdf: pd.DataFrame) -> list[np.ndarray]:
        codes = []
        for col, rb in zip(self.cols, self.rank_bounds):
            if isinstance(rb, dict):
                cat = pdf[col].astype("category").array
                # Rank per category, plus the top rank at position -1 for
                # the missing values' code.
                mx = max(rb.values(), default=0)
                lookup = np.array([rb.get(v, mx) for v in cat.categories] + [mx], dtype=np.int64)
                c = lookup[cat.codes]
            else:
                c = np.searchsorted(np.asarray(rb), pdf[col].to_numpy(), side="right").astype(np.int64)
            codes.append(c)
        return codes

    def zvalues(self, pdf: pd.DataFrame) -> np.ndarray:
        """Morton code per row."""
        return _interleave(self._codes(pdf), BITS)

    def assign(self, pdf: pd.DataFrame) -> np.ndarray:
        """BID per row: bucket of the Morton code among the frozen cuts."""
        return np.searchsorted(
            np.asarray(self.z_cuts), self.zvalues(pdf), side="right"
        ).astype(np.int64)


def build_zorder(
    sample: pd.DataFrame,
    queries: list[Query] | tuple[Query, ...],
    k: int,
    *,
    categorical_cols: tuple[str, ...] = (),
    n_cols: int = N_COLS,
    name: str = "zorder",
) -> ZOrderLayout:
    """Build a k-partition Z-order layout on the top queried columns."""
    if k < 1:
        raise ValueError("k must be >= 1")
    cols = top_queried_columns(queries, n_cols=n_cols)
    if not cols:
        cols = tuple(c for c in sample.columns if c not in categorical_cols)[:n_cols]

    n_buckets = 1 << BITS
    rank_bounds: list = []
    for col in cols:
        if col in categorical_cols:
            cat = sample[col].astype("category").array
            present = np.unique(cat.codes)
            vals = sorted(cat.categories[present[present >= 0]])
            scale = max(1, n_buckets // max(1, len(vals)))
            rank_bounds.append({v: i * scale for i, v in enumerate(vals)})
        else:
            v = sample[col].to_numpy()
            if v.dtype.kind == "f":
                v = v[~np.isnan(v)]
            qs = np.linspace(0, 1, n_buckets + 1)[1:-1]
            rank_bounds.append(tuple(sorted_quantiles(v, qs).tolist()) if len(v) else ())

    layout = ZOrderLayout(cols=cols, rank_bounds=tuple(rank_bounds), z_cuts=(), name=name)
    z = layout.zvalues(sample)
    zs = np.sort(z)
    # Interior boundaries at equal-count positions of the sampled z values.
    pos = (np.arange(1, k) * len(zs) // k).clip(0, max(0, len(zs) - 1))
    cuts = tuple(int(c) for c in np.unique(zs[pos])) if len(zs) else ()
    return ZOrderLayout(cols=cols, rank_bounds=tuple(rank_bounds), z_cuts=cuts, name=name)
