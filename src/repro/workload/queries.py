"""Query and predicate model.

A query is a conjunction of column predicates. Two predicate kinds cover
everything the paper's workloads need (and everything basic partition-level
metadata can reason about — the paper explicitly excludes e.g. ``LIKE`` on
high-cardinality columns for this reason):

- :class:`RangePredicate` — ``lo <= col <= hi`` on a numeric column
  (dates are stored as integer days in our lite schemas).
- :class:`InPredicate` — ``col IN (values)`` on a categorical (string)
  column.

Each predicate knows how to (a) evaluate itself row-wise on a pandas frame
(ground truth / Spark-free correctness), and (b) render itself as a SQL
WHERE clause fragment for Spark SQL and the DuckDB oracle.

:func:`compile_queries` turns a query stream into arrays once, so that the
metadata cost model can cost a whole stream against a layout in one pass
(:meth:`repro.layouts.metadata.MaterializedLayout.cost_vector`). Each
predicate column keeps arrays only for the queries that filter it, with
their stream positions, so costing touches only those queries. A query's
predicates on one column combine into one constraint: range bounds into
the tightest range, IN lists into the intersection of their values.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

Predicate = "RangePredicate | InPredicate"


@dataclass(frozen=True)
class RangePredicate:
    """Inclusive range predicate ``lo <= col <= hi``; either bound may be None."""

    col: str
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self) -> None:
        if self.lo is None and self.hi is None:
            raise ValueError(f"RangePredicate on {self.col} needs at least one bound")

    def mask(self, pdf: pd.DataFrame) -> np.ndarray:
        """Row-wise boolean mask over ``pdf``."""
        v = pdf[self.col].to_numpy()
        m = np.ones(len(pdf), dtype=bool)
        if self.lo is not None:
            m &= v >= self.lo
        if self.hi is not None:
            m &= v <= self.hi
        return m

    def to_sql(self) -> str:
        parts = []
        if self.lo is not None:
            parts.append(f"{self.col} >= {self.lo!r}")
        if self.hi is not None:
            parts.append(f"{self.col} <= {self.hi!r}")
        return "(" + " AND ".join(parts) + ")"


@dataclass(frozen=True)
class InPredicate:
    """Membership predicate ``col IN values`` on a categorical column."""

    col: str
    values: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", frozenset(self.values))
        if not self.values:
            raise ValueError(f"InPredicate on {self.col} needs at least one value")

    def mask(self, pdf: pd.DataFrame) -> np.ndarray:
        return pdf[self.col].isin(self.values).to_numpy()

    def to_sql(self) -> str:
        # SQL string literals escape an embedded quote by doubling it.
        vals = ", ".join("'" + v.replace("'", "''") + "'" for v in sorted(self.values))
        return f"({self.col} IN ({vals}))"


@dataclass(frozen=True)
class Query:
    """A conjunctive filter query, tagged with the template that produced it."""

    predicates: tuple
    template_id: int = -1

    def mask(self, pdf: pd.DataFrame) -> np.ndarray:
        """Row-wise mask of records the query's filter selects."""
        m = np.ones(len(pdf), dtype=bool)
        for p in self.predicates:
            m &= p.mask(pdf)
        return m

    def selectivity(self, pdf: pd.DataFrame) -> float:
        """Fraction of rows selected — used in tests, not in the cost model."""
        if len(pdf) == 0:
            return 0.0
        return float(self.mask(pdf).mean())

    def to_sql_where(self) -> str:
        """SQL WHERE-clause body (``TRUE`` for an empty conjunction)."""
        if not self.predicates:
            return "TRUE"
        return " AND ".join(p.to_sql() for p in self.predicates)

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(p.col for p in self.predicates)


@dataclass(frozen=True)
class CompiledQueries:
    """A query stream as arrays, kept only for the queries that carry each
    predicate.

    - ``ranges``: per range-filtered column, ``(rows, lo, hi)``: the
      ascending stream positions of the queries that filter the column, and
      their combined bounds (``-inf``/``inf`` where a query sets none).
      Repeated range predicates on one column combine as max(lo) / min(hi).
    - ``ins``: per IN-filtered column, ``(vocab, rows, mask)``: the sorted
      vocabulary of every value the stream's IN predicates name, the
      ascending positions of the queries that filter the column, and a
      (len(rows) × V) mask that is 1 at the values each query admits.
      Repeated IN predicates on one column combine by intersecting their
      value sets; an empty intersection is an all-zero row. Masks are
      float32 so that overlap counts are an exact BLAS product.
    """

    queries: tuple[Query, ...]
    ranges: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]
    ins: dict[str, tuple[tuple[str, ...], np.ndarray, np.ndarray]]
    # (col, id(categories)) -> (categories, hit, idx) of :meth:`vocab_on`;
    # holding the categories keeps their id from being reused.
    _vocab_maps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.queries)

    def vocab_on(self, col: str, categories: pd.Index) -> tuple[np.ndarray, np.ndarray]:
        """The IN vocabulary of ``col`` mapped onto ``categories``: the mask
        of the vocabulary values among them, and their positions there.

        Computed once per categories object: the layouts materialized from
        one frame share its categories, so a stream costed against many of
        them maps its vocabulary once.
        """
        key = (col, id(categories))
        hit = self._vocab_maps.get(key)
        if hit is None:
            idx = categories.get_indexer(self.ins[col][0])
            found = idx >= 0
            hit = self._vocab_maps[key] = (categories, found, idx[found])
        return hit[1], hit[2]


def compile_queries(queries) -> CompiledQueries:
    """Compile ``queries`` (any iterable of :class:`Query`) into arrays."""
    queries = tuple(queries)
    bounds: dict[str, dict[int, list[float]]] = {}  # col -> {i: [lo, hi]}
    sets: dict[str, dict[int, frozenset]] = {}  # col -> {i: values}
    named: dict[str, set] = {}  # col -> every value an IN predicate names
    for i, q in enumerate(queries):
        for p in q.predicates:
            if isinstance(p, RangePredicate):
                b = bounds.setdefault(p.col, {}).setdefault(i, [-np.inf, np.inf])
                if p.lo is not None:
                    b[0] = max(b[0], p.lo)
                if p.hi is not None:
                    b[1] = min(b[1], p.hi)
            elif isinstance(p, InPredicate):
                by_query = sets.setdefault(p.col, {})
                by_query[i] = by_query[i] & p.values if i in by_query else p.values
                named.setdefault(p.col, set()).update(p.values)
            else:
                raise TypeError(f"unknown predicate type {type(p)}")

    ranges = {}
    for col, by_query in bounds.items():
        lo_hi = np.array(list(by_query.values()), dtype=np.float64)
        ranges[col] = (np.fromiter(by_query, dtype=np.intp), lo_hi[:, 0], lo_hi[:, 1])
    ins = {}
    for col, by_query in sets.items():
        vocab = tuple(sorted(named[col]))
        index = {v: j for j, v in enumerate(vocab)}
        at = [j for j, values in enumerate(by_query.values()) for _ in values]
        codes = [index[v] for values in by_query.values() for v in values]
        mask = np.zeros((len(by_query), len(vocab)), dtype=np.float32)
        mask[at, codes] = 1
        ins[col] = (vocab, np.fromiter(by_query, dtype=np.intp), mask)
    return CompiledQueries(queries, ranges, ins)
