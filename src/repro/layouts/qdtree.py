"""Greedy Qd-tree layout construction (Yang et al., SIGMOD'20; paper ref [7]).

A Qd-tree is a binary decision tree whose inner nodes hold predicates drawn
from the query workload; routing a record down the tree to a leaf yields its
partition id. The paper builds Qd-trees with "the greedy construction
algorithm ... based on a 0.1% to 1% sample of the dataset" (§VI-A1); we do
the same:

- candidate cuts are harvested from workload predicates (range bounds
  become numeric threshold cuts ``col < v``; IN-predicates become set-
  membership cuts),
- starting from a single root, repeatedly split the (leaf, cut) pair with
  the largest *skipping benefit* — the expected number of sampled rows that
  become skippable for the sampled workload — until the target partition
  count ``k`` is reached or no split helps,
- benefit uses node-level metadata refined only on the cut column, the
  standard approximation that keeps construction metadata-only.

Each leaf's split search is a fixed handful of array operations over all
numeric cuts and queries at once, plus a few per categorical column:

- the window's predicates are compiled once per build by
  :func:`~repro.workload.queries.compile_queries`, as for the cost model:
  per numeric column, the queries that filter it with their tightest
  bounds ``[L, H]``, so such a query can touch a node with range
  ``[lo, hi]`` exactly when ``hi >= L and lo <= H``; per categorical
  column, the window's IN vocabulary and, per query that filters the
  column, one mask of the values it admits (repeated IN-predicates
  intersect). The sample's column is coded into that vocabulary
  (``get_indexer``), with one more code for every other or missing value,
  so IN-predicates, cut value sets and a node's distinct values are
  boolean masks over one code space;
- a leaf's *accessed* queries are those its metadata cannot skip. They are
  narrowed with the root's spans and, at every split, with the child's span
  on the cut column, so each accessed query meets the leaf's ``[lo, hi]``
  on every numeric column. A numeric cut's children span ``[lo, v_prev]``
  and ``[v, hi]`` (``v_prev`` is the float below ``v``), so the left child
  skips an accessed query exactly when ``L > v_prev`` and the right one
  exactly when ``H < v``. Those two tests depend only on the query and the
  cut, so they are one per-build query × cut *skip matrix* (float32, at
  most ``MAX_QUERIES`` × 2·``MAX_CUTS``), and a leaf's skip counts for
  every numeric cut are one product of its accessed mask with it; the
  counts are at most ``MAX_QUERIES``, so float32 is exact;
- a numeric cut's left-side row count ``n1`` comes from one
  ``searchsorted`` of all the column's thresholds into the leaf's sorted
  values, done only for columns with a cut that can still score (inside
  ``(lo, hi]``, some child skipping a query); a categorical cut's from its
  mask times the leaf's code counts;
- a cut's benefit is ``n1·skip_left + (n_leaf − n1)·skip_right``, where
  ``skip_*`` counts the accessed queries that cannot touch that child: for
  a categorical cut, those whose mask names none of the leaf's values the
  cut sends to the child. The counts are integers, so the result is exact;
- the leaf's cut is the ``argmax`` of the benefit vector in cut order,
  taken only if positive, so ties go to the first cut harvested. A leaf
  below ``2·min_rows`` rows has no admissible cut and is not searched, and
  the split that makes the ``k``-th leaf ends the build without searching
  its children.

Measured and not kept: ``n1`` as a dense (sample × cut) membership product
(a 4000 × 128 gemv per leaf costs more than the sorts it saves), and the
categorical cuts of all columns stacked into one code space with one
product per leaf (no faster on tpch_lite, slower on tpcds_lite and
telemetry than the per-column search).

Leaf ranges ignore NaN (an all-NaN range is empty, ``(inf, -inf)``) and NaN
rows route right (``NaN < v`` is false), both here and in ``assign``. A
missing categorical value is in no cut's value set, so it routes right too.
``assign`` reads categorical columns as dictionary codes
(``astype("category")``) and routes a categorical cut by a mask over them.

The returned :class:`QdTreeLayout` assigns BIDs to any dataframe by vectorized
tree routing, so the same object drives both the simulator (metadata from the
full frame) and the Spark reorganization job (mapInPandas).
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.workload.queries import InPredicate, Query, RangePredicate, compile_queries

MAX_QUERIES = 64  # a build reads at most this many queries, evenly spaced
MAX_CUTS = 128  # and at most this many distinct cuts, a seeded subsample


@dataclass(frozen=True)
class NumCut:
    """Numeric threshold cut: left subtree holds rows with ``col < v``."""

    col: str
    v: float


@dataclass(frozen=True)
class CatCut:
    """Categorical membership cut: left subtree holds rows with ``col ∈ values``."""

    col: str
    values: frozenset[str]


Cut = NumCut | CatCut


@dataclass
class _Node:
    """Tree node; leaves carry ``bid``, inner nodes carry ``cut`` + children."""

    cut: Cut | None = None
    left: "_Node | None" = None
    right: "_Node | None" = None
    bid: int = -1


@dataclass(frozen=True)
class QdTreeLayout:
    """An immutable, routable Qd-tree with ``n_partitions`` leaves."""

    root: _Node = field(compare=False)
    n_partitions: int
    name: str = "qdtree"

    def assign(self, pdf: pd.DataFrame) -> np.ndarray:
        """BID per row of ``pdf`` by vectorized routing through the tree."""
        bids = np.empty(len(pdf), dtype=np.int64)
        idx = np.arange(len(pdf))
        stack = [(self.root, idx)]
        nums = {}  # column -> its values, read once
        cats = {}  # column -> its dictionary codes, as a ``Categorical``
        while stack:
            node, rows = stack.pop()
            if node.cut is None:
                bids[rows] = node.bid
                continue
            c = node.cut.col
            if isinstance(node.cut, NumCut):
                if c not in nums:
                    nums[c] = pdf[c].to_numpy()
                m = nums[c][rows] < node.cut.v
            else:
                if c not in cats:
                    # A Categorical column's own codes; an object column
                    # (as Spark batches carry strings) is coded here.
                    col = pdf[c]
                    cats[c] = (
                        col.array if isinstance(col.dtype, pd.CategoricalDtype)
                        else col.astype("category").array
                    )
                cat = cats[c]
                # The cut's categories as a code mask; a missing value
                # (code -1) indexes the trailing False.
                left = np.append(cat.categories.isin(node.cut.values), False)
                m = left[cat.codes[rows]]
            stack.append((node.left, rows[m]))
            stack.append((node.right, rows[~m]))
        return bids


def harvest_cuts(queries: list[Query] | tuple[Query, ...], max_cuts: int = MAX_CUTS, seed: int = 0) -> list[Cut]:
    """Extract deduplicated candidate cuts from workload predicates.

    Range bound ``lo`` becomes ``col < lo`` (rows below can be skipped for
    the query); bound ``hi`` becomes ``col < nextafter(hi)`` so rows at or
    below ``hi`` land left. If more than ``max_cuts`` distinct cuts exist,
    a uniform subsample is kept (deterministic in ``seed``).
    """
    # (col, threshold) or (col, value set), in first-seen order.
    keys: dict[tuple, None] = {}
    for q in queries:
        for p in q.predicates:
            if isinstance(p, RangePredicate):
                if p.lo is not None:
                    keys[p.col, float(p.lo)] = None
                if p.hi is not None:
                    keys[p.col, float(np.nextafter(p.hi, np.inf))] = None
            elif isinstance(p, InPredicate):
                keys[p.col, p.values] = None
    out = list(keys)
    if len(out) > max_cuts:
        g = np.random.default_rng(seed)
        keep = g.choice(len(out), size=max_cuts, replace=False)
        out = [out[i] for i in sorted(keep)]
    return [NumCut(c, v) if isinstance(v, float) else CatCut(c, v) for c, v in out]


def _span(v: np.ndarray) -> tuple[float, float]:
    """NaN-ignoring ``(min, max)``; ``(inf, -inf)`` when no value is a number."""
    return float(np.fmin.reduce(v, initial=np.inf)), float(np.fmax.reduce(v, initial=-np.inf))


def build_qdtree(
    sample: pd.DataFrame,
    queries: list[Query] | tuple[Query, ...],
    k: int,
    *,
    categorical_cols: tuple[str, ...] = (),
    min_leaf_frac: float = 0.25,
    name: str = "qdtree",
    seed: int = 0,
) -> QdTreeLayout:
    """Greedily build a Qd-tree with up to ``k`` leaves from a data sample.

    ``min_leaf_frac`` bounds leaf size at ``min_leaf_frac * len(sample)/k``
    so partitions stay near the target size (the paper sizes partitions at
    1–2M rows). At most ``MAX_QUERIES`` evenly spaced queries of the window
    are read, and at most ``MAX_CUTS`` of their cuts. Deterministic in
    ``seed``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    queries = list(queries)
    if len(queries) > MAX_QUERIES:
        step = len(queries) / MAX_QUERIES
        queries = [queries[int(i * step)] for i in range(MAX_QUERIES)]
    cuts = harvest_cuts(queries, seed=seed)
    stream = compile_queries(queries)
    for c in stream.ranges:
        if c in categorical_cols:
            raise ValueError(f"range predicate on categorical column {c!r}")
    for c in stream.ins:
        if c not in categorical_cols:
            raise ValueError(f"IN-predicate on non-categorical column {c!r}")

    num = {c: sample[c].to_numpy(dtype=np.float64) for c in stream.ranges}
    col_at = {c: j for j, c in enumerate(num)}  # position in a leaf's lo/hi
    # A categorical column's codes are its IN vocabulary's positions, plus
    # one code ``V`` for every other value and for a missing one.
    vocab = {c: v for c, (v, _, _) in stream.ins.items()}
    codes = {}
    for c, v in vocab.items():
        at = pd.Index(v).get_indexer(sample[c])
        codes[c] = np.where(at >= 0, at, len(v))

    # Cuts grouped by column (all of one kind), with their positions in
    # ``cuts``; a categorical cut's value set is a code mask, kept per cut.
    by_col: dict[str, list[int]] = {}
    for i, cut in enumerate(cuts):
        by_col.setdefault(cut.col, []).append(i)
    # Numeric cuts laid out column by column: their positions in ``cuts``,
    # their columns' positions, ``v`` and ``v_prev``; column c's cuts are
    # ``seg[c]``. ``G[q, i]`` is 1 when query q filters cut i's column with
    # ``L > v_prev`` and ``G[q, n_num + i]`` when with ``H < v``.
    num_pos = [i for c in num for i in by_col.get(c, ())]
    n_num = len(num_pos)
    num_col = np.array([col_at[cuts[i].col] for i in num_pos], dtype=np.intp)
    v = np.array([cuts[i].v for i in num_pos])
    v_prev = np.nextafter(v, -np.inf)
    G = np.zeros((len(stream), 2 * n_num), dtype=np.float32)
    G_left, G_right = G[:, :n_num], G[:, n_num:]
    seg, start = {}, 0
    for c in num:
        if c in by_col:
            s = seg[c] = slice(start, start + len(by_col[c]))
            q, lo_b, hi_b = stream.ranges[c]
            G_left[q, s] = lo_b[:, None] > v_prev[s]
            G_right[q, s] = hi_b[:, None] < v[s]
            start = s.stop
    starts = [s.start for s in seg.values()]
    cat_cuts, in_cut = {}, {}
    for c, idx in by_col.items():
        if c not in num:
            code = {x: j for j, x in enumerate(vocab[c])}
            masks = np.zeros((len(idx), len(vocab[c]) + 1), dtype=bool)
            for m, i in zip(masks, idx):
                m[[code[x] for x in cuts[i].values]] = True
                in_cut[cuts[i]] = m
            cat_cuts[c] = (np.asarray(idx), masks, masks[:, :-1].astype(np.float32))

    def touch_num(acc: np.ndarray, c: str, lo: float, hi: float) -> np.ndarray:
        """``acc`` narrowed to the queries whose bounds on ``c`` meet ``[lo, hi]``."""
        rows, lo_b, hi_b = stream.ranges[c]
        out = acc.copy()
        out[rows] &= (hi >= lo_b) & (lo <= hi_b)
        return out

    def touch_cat(acc: np.ndarray, c: str, dist: np.ndarray) -> np.ndarray:
        """``acc`` without the queries whose IN values on ``c`` are disjoint from ``dist``."""
        _, rows, mask = stream.ins[c]
        out = acc.copy()
        out[rows[~mask[:, dist[:-1]].any(1)]] = False
        return out

    min_rows = max(1, int(min_leaf_frac * len(sample) / k))

    # A leaf is (sample rows, lo, hi, distinct, accessed): the numeric ranges
    # (arrays by column position) and distinct-code masks are refined only on
    # cut columns; ``accessed`` masks the queries that leaf metadata cannot
    # skip, so each of them meets ``[lo, hi]`` on every numeric column.
    def best_split(rows, lo, hi, dist, acc) -> tuple[int, int]:
        """(benefit, index into ``cuts``) of the leaf's best cut."""
        n_leaf = len(rows)
        if n_leaf < 2 * min_rows:  # no cut leaves both children min_rows
            return 0, 0
        ben = np.zeros(len(cuts), dtype=np.int64)
        if n_num:
            skip = (acc.astype(np.float32) @ G).astype(np.int64)
            skip_l, skip_r = skip[:n_num], skip[n_num:]
            ok = (lo[num_col] < v) & (v <= hi[num_col]) & ((skip_l > 0) | (skip_r > 0))
            n1 = np.zeros(n_num, dtype=np.int64)
            for (c, s), live in zip(seg.items(), np.logical_or.reduceat(ok, starts)):
                if live:
                    x = num[c][rows]
                    x.sort()
                    n1[s] = x.searchsorted(v[s])
            ok &= (n1 >= min_rows) & (n_leaf - n1 >= min_rows)
            ben[num_pos] = np.where(ok, n1 * skip_l + (n_leaf - n1) * skip_r, 0)
        for c, (idx, masks, masks_f) in cat_cuts.items():
            _, q, mask = stream.ins[c]
            sel = acc[q]
            if not sel.any():
                continue
            # With ``min_rows >= 1`` both children hold rows, so neither
            # child's value set is empty.
            n1 = masks @ np.bincount(codes[c][rows], minlength=masks.shape[1])
            ok = (n1 >= min_rows) & (n_leaf - n1 >= min_rows)
            if not ok.any():
                continue
            # A child skips a selected query when the query's IN values on
            # c name none of the leaf's values the cut sends to that child.
            d = dist[c][:-1]
            p = mask[sel][:, d]
            hit = masks_f[:, d] @ p.T
            skip_l = (hit == 0).sum(1)
            skip_r = (hit == p.sum(1)).sum(1)
            ben[idx[ok]] = (n1 * skip_l + (n_leaf - n1) * skip_r)[ok]
        best = int(np.argmax(ben))
        return int(ben[best]), best

    def split(leaf, cut: Cut):
        rows, lo, hi, dist, acc = leaf
        c = cut.col
        if isinstance(cut, NumCut):
            lm = num[c][rows] < cut.v
        else:
            lm = in_cut[cut][codes[c][rows]]
        children = []
        for part in (rows[lm], rows[~lm]):
            if isinstance(cut, NumCut):
                j = col_at[c]
                clo, chi = lo.copy(), hi.copy()
                clo[j], chi[j] = _span(num[c][part])
                children.append((part, clo, chi, dist, touch_num(acc, c, clo[j], chi[j])))
            else:
                cdist = dict(dist)
                cdist[c] = np.bincount(codes[c][part], minlength=len(dist[c])) > 0
                children.append((part, lo, hi, cdist, touch_cat(acc, c, cdist[c])))
        return children

    root_lo, root_hi = np.empty(len(num)), np.empty(len(num))
    acc = np.ones(len(stream), dtype=bool)
    for j, c in enumerate(num):
        root_lo[j], root_hi[j] = _span(num[c])
        acc = touch_num(acc, c, root_lo[j], root_hi[j])
    root_dist = {}
    for c in codes:
        root_dist[c] = np.bincount(codes[c], minlength=len(vocab[c]) + 1) > 0
        acc = touch_cat(acc, c, root_dist[c])

    # Greedy loop over a max-heap of leaves keyed by their best benefit;
    # equal benefits pop in creation order.
    counter = itertools.count()
    root_node = _Node()
    heap: list = []

    def push(leaf, node: _Node) -> None:
        ben, i = best_split(*leaf)
        if ben > 0:
            heapq.heappush(heap, (-ben, next(counter), cuts[i], leaf, node))

    if cuts and k > 1:
        push((np.arange(len(sample)), root_lo, root_hi, root_dist, acc), root_node)
    n_leaves = 1
    while n_leaves < k and heap:
        _, _, cut, leaf, node = heapq.heappop(heap)
        node.cut = cut
        node.left, node.right = _Node(), _Node()
        n_leaves += 1
        # The k-th leaf ends the build: its children are never searched.
        if n_leaves < k:
            for child, child_node in zip(split(leaf, cut), (node.left, node.right)):
                push(child, child_node)

    # Number leaves in deterministic (DFS) order.
    bid = 0
    stack = [root_node]
    while stack:
        nd = stack.pop()
        if nd.cut is None:
            nd.bid = bid
            bid += 1
        else:
            stack.append(nd.right)
            stack.append(nd.left)
    return QdTreeLayout(root=root_node, n_partitions=bid, name=name)
