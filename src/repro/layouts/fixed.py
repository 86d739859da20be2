"""Default (non-workload-aware) layout: range partitioning on one column.

This is the layout OREO starts from before it has seen any queries —
"start with a default data layout, such as partitioning by time" (§IV-A).
Partition boundaries are quantiles of the sort column's non-NaN values in
a data sample, giving ~equal-sized partitions; assignment is a searchsorted
over those boundaries, so it is a pure function of the row values and can
be re-applied to any data (including inside Spark via mapInPandas). NaN
rows sort past the last boundary, into the top partition.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.layouts.zorder import sorted_quantiles


@dataclass(frozen=True)
class FixedRangeLayout:
    """Range-partition by ``col`` with precomputed quantile ``cuts``."""

    col: str
    cuts: tuple[float, ...]  # ascending interior boundaries; k partitions = len+1

    @property
    def name(self) -> str:
        return f"fixed:{self.col}:{len(self.cuts) + 1}"

    @property
    def n_partitions(self) -> int:
        return len(self.cuts) + 1

    def assign(self, pdf: pd.DataFrame) -> np.ndarray:
        """BID per row: index of the quantile bucket of ``col``."""
        return np.searchsorted(
            np.asarray(self.cuts), pdf[self.col].to_numpy(), side="right"
        ).astype(np.int64)


def build_fixed(pdf: pd.DataFrame, col: str, k: int) -> FixedRangeLayout:
    """Build a k-partition range layout on ``col`` from quantiles of ``pdf``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    qs = np.linspace(0, 1, k + 1)[1:-1]
    v = pdf[col].to_numpy()
    if v.dtype.kind == "f":
        v = v[~np.isnan(v)]
    cuts = np.unique(sorted_quantiles(v, qs)) if len(v) else ()
    return FixedRangeLayout(col=col, cuts=tuple(float(c) for c in cuts))
