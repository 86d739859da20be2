"""Data-layout substrate.

A *layout* is a mapping from rows to partition ids (BIDs). Three generators
are provided, mirroring the paper's §VI-A1: the workload-aware Qd-tree
(``qdtree``), workload-aware Z-ordering on the top queried columns
(``zorder``), and a default range layout on a predefined sort column
(``fixed``). ``metadata`` holds partition-level statistics and the
vectorized query-cost evaluation (``cost_vector`` over a stream compiled by
``compile_queries``) the whole framework runs on — costs are computed from
metadata only, never by scanning data, exactly as OREO does.
"""
from repro.layouts.metadata import MaterializedLayout, build_materialized  # noqa: F401
from repro.layouts.fixed import FixedRangeLayout, build_fixed  # noqa: F401
from repro.layouts.qdtree import QdTreeLayout, build_qdtree  # noqa: F401
from repro.layouts.zorder import ZOrderLayout, build_zorder, top_queried_columns  # noqa: F401
