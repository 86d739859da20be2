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
