"""Workload-aware Z-order layout (Morton order; paper refs [16], §VI-A1).

The paper "use[s] Z-ordering on user-defined columns to split the dataset
into equal-sized partitions. To make Z-ordering workload-aware, we use the
top three most queried columns in the sliding window". We reproduce that:

1. pick the ``n_cols`` most frequently filtered columns in the window,
2. rank each chosen column into ``2^bits`` buckets (:func:`rank_bound` fits
   the bounds on a data sample, :func:`rank` applies them). A numeric
   column's bounds are numpy's ``linear`` quantiles of the sample's non-NaN
   values, taken from one sort (:func:`sorted_quantiles`); NaN rows rank
   past the last bound, into the top bucket. A categorical column is ranked
   by the lexicographic order of the values present in the sample, spread
   over the ``2^bits`` ranks; a missing value, or one the sample lacks,
   takes the top rank. Rows are ranked through their dictionary codes
   (``astype("category")``): one lookup array over the frame's categories,
   indexed by the codes,
3. interleave the ranks' bits into a Morton code, one table gather per
   column (:func:`_interleave`), and split the sample's sorted codes into
   ``k`` equal partitions via code boundaries.

The window enters a build only through step 1, so a Z-order layout is
determined by its column tuple (and the sample): two windows with the same
top columns give the same layout. A column's ranks depend only on the
sample, so :class:`ColumnRanks` computes each column's bounds, sample ranks
and frame ranks once, and the builds that share it only interleave them.

Assignment is again a pure function of row values (rank bounds + z-code
boundaries are stored in the layout), reusable in the simulator and inside
Spark; it goes through the same :func:`rank` and :func:`_interleave`.
"""
from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

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


def rank_bound(values: pd.Series, categorical: bool):
    """The rank bounds of a column, fitted on its build-sample ``values``.

    Numeric: the ``2^bits - 1`` interior quantiles of the non-NaN values, as
    a tuple (empty when there are none). Categorical: a mapping from each
    value present (missing values excluded) to its rank, in lexicographic
    order, spread over the ``2^bits`` ranks (``i * scale``; ``i * 2^bits //
    n`` when the ``n`` values outnumber the ranks).
    """
    n_ranks = 1 << BITS
    if categorical:
        cat = values.astype("category").array
        present = np.unique(cat.codes)
        vals = sorted(cat.categories[present[present >= 0]])
        if len(vals) > n_ranks:
            return {v: i * n_ranks // len(vals) for i, v in enumerate(vals)}
        scale = max(1, n_ranks // max(1, len(vals)))
        return {v: i * scale for i, v in enumerate(vals)}
    v = values.to_numpy()
    if v.dtype.kind == "f":
        v = v[~np.isnan(v)]
    qs = np.linspace(0, 1, n_ranks + 1)[1:-1]
    return tuple(sorted_quantiles(v, qs).tolist()) if len(v) else ()


def rank(values: pd.Series, bound) -> np.ndarray:
    """Rank of each of ``values`` under a :func:`rank_bound`, in ``[0, 2^bits)``.

    A number ranks by the count of bounds at or below it, so NaN takes the
    top rank. A categorical value is ranked through its dictionary code
    (``astype("category")``): one lookup array over the categories, indexed
    by the codes; a missing value, or one the bound lacks, takes the top
    rank.
    """
    if isinstance(bound, dict):
        cat = values.astype("category").array
        # Rank per category, plus the top rank at position -1 for the
        # missing values' code.
        top = max(bound.values(), default=0)
        lookup = np.array([bound.get(v, top) for v in cat.categories] + [top], dtype=np.int64)
        return lookup[cat.codes]
    return np.searchsorted(np.asarray(bound), values.to_numpy(), side="right").astype(np.int64)


@functools.cache
def _spread(n: int, bits: int) -> np.ndarray:
    """Entry ``x``: the bits of ``x`` moved ``n`` apart (bit ``b`` to
    position ``b * n``). Read-only, as every caller shares it."""
    x = np.arange(1 << bits, dtype=np.int64)
    out = np.zeros_like(x)
    for b in range(bits):
        out |= ((x >> b) & 1) << (b * n)
    out.setflags(write=False)
    return out


def _interleave(codes: list[np.ndarray], bits: int) -> np.ndarray:
    """Bit-interleave equal-length arrays of codes in ``[0, 2^bits)`` into
    one Morton code: bit ``b`` of column ``j`` goes to position ``b * n + j``.

    Each column costs one gather from the :func:`_spread` table, a shift
    and an OR.
    """
    spread = _spread(len(codes), bits)
    z = np.zeros(len(codes[0]), dtype=np.int64)
    for j, c in enumerate(codes):
        z |= spread[c] << j
    return z


@dataclass(frozen=True)
class ZOrderLayout:
    """Z-order on ``cols`` with frozen rank boundaries and z-code cuts."""

    cols: tuple[str, ...]
    # Per column, a :func:`rank_bound`: for numeric, ascending quantile
    # boundaries (len 2^bits - 1); for categorical, a mapping value -> rank.
    rank_bounds: tuple
    z_cuts: tuple[int, ...]  # interior boundaries of the k partitions
    name: str = "zorder"

    @property
    def n_partitions(self) -> int:
        return len(self.z_cuts) + 1

    def ranks(self, pdf: pd.DataFrame) -> list[np.ndarray]:
        """Rank of every row on each of ``cols``."""
        return [rank(pdf[c], b) for c, b in zip(self.cols, self.rank_bounds)]

    def bids(self, ranks: list[np.ndarray]) -> np.ndarray:
        """BID per row of :meth:`ranks`: bucket of its Morton code among the
        frozen cuts, the count of cuts at or below it.

        The codes are sorted once and the ascending cuts located among them,
        which is cheaper than locating every unsorted code among the cuts:
        the bucket of cuts ``[i - 1, i)`` is one run of the sorted codes.
        """
        z = _interleave(ranks, BITS)
        order = np.argsort(z)
        ends = np.searchsorted(z[order], self.z_cuts, side="left")
        out = np.empty(len(z), dtype=np.int64)
        out[order] = np.repeat(
            np.arange(self.n_partitions, dtype=np.int64), np.diff(ends, prepend=0, append=len(z))
        )
        return out

    def assign(self, pdf: pd.DataFrame) -> np.ndarray:
        """BID per row."""
        return self.bids(self.ranks(pdf))


class Ranked(NamedTuple):
    """One column's rank bound and the ranks of the sample and frame under it."""

    bound: object
    sample: np.ndarray
    frame: np.ndarray | None


class ColumnRanks:
    """Rank bounds of columns on one build sample, and the ranks of the
    sample and of ``frame`` (if given) under them, each computed the first
    time a build asks for the column.

    Z-order candidates built on one sample draw their columns from a few,
    so most builds only interleave ranks already computed. A held entry is
    exactly what :func:`rank_bound` and :func:`rank` give, so a build from
    it is the same as one from the sample.
    """

    def __init__(
        self, sample: pd.DataFrame, categorical_cols: tuple[str, ...], frame: pd.DataFrame | None = None
    ) -> None:
        self.sample = sample
        self.categorical_cols = categorical_cols
        self.frame = frame
        self._cols: dict[str, Ranked] = {}

    def __getitem__(self, col: str) -> Ranked:
        hit = self._cols.get(col)
        if hit is None:
            bound = rank_bound(self.sample[col], col in self.categorical_cols)
            frame = None if self.frame is None else rank(self.frame[col], bound)
            hit = self._cols[col] = Ranked(bound, rank(self.sample[col], bound), frame)
        return hit

    def frame_bids(self, layout: ZOrderLayout) -> np.ndarray:
        """``layout.assign(frame)`` for a layout built on these ranks."""
        return layout.bids([self[c].frame for c in layout.cols])


def build_zorder(
    sample: pd.DataFrame,
    queries: list[Query] | tuple[Query, ...],
    k: int,
    *,
    categorical_cols: tuple[str, ...] = (),
    n_cols: int = N_COLS,
    name: str = "zorder",
    ranks: ColumnRanks | None = None,
) -> ZOrderLayout:
    """Build a k-partition Z-order layout on the top queried columns.

    ``ranks`` holds column ranks of ``sample`` under ``categorical_cols``
    to reuse across builds; by default they are computed for this build
    alone.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if ranks is None:
        ranks = ColumnRanks(sample, categorical_cols)
    cols = top_queried_columns(queries, n_cols=n_cols)
    if not cols:
        cols = tuple(c for c in sample.columns if c not in categorical_cols)[:n_cols]

    zs = np.sort(_interleave([ranks[c].sample for c in cols], BITS))
    # Interior boundaries at equal-count positions of the sampled z values.
    pos = (np.arange(1, k) * len(zs) // k).clip(0, max(0, len(zs) - 1))
    cuts = tuple(int(c) for c in np.unique(zs[pos])) if len(zs) else ()
    return ZOrderLayout(
        cols=cols, rank_bounds=tuple(ranks[c].bound for c in cols), z_cuts=cuts, name=name
    )
