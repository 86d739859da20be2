"""Figure 3 (as a table): total query + reorganization cost per method.

Paper: end-to-end Spark seconds for Static / Greedy / Regret / OREO with
Qd-tree and Z-order layouts on TPC-H, TPC-DS, Telemetry; headline result is
OREO beating the static optimized layout by up to 32% in total compute.

We reproduce the full grid in the logical cost model at the paper's stream
length (30K queries, 20 segments) and report it in logical units: query
cost in full scans, reorganization cost as α scans per move. Table I
measures the unit times that would turn these into Spark seconds. The
direct end-to-end Spark validation of the cost model itself lives in
``tests/test_cost_model_validation.py`` and Table I.
"""
from __future__ import annotations

from repro.baselines.runners import run_greedy, run_regret, run_static
from repro.core.oreo import run_oreo
from repro.experiments.common import (
    ALPHA,
    DATASETS,
    K_PARTITIONS,
    N_QUERIES_HEADLINE,
    expect,
    make_setup,
    markdown_table,
    mean_costs,
    mean_over_seeds,
)

LAYOUT_KINDS = ("qdtree", "zorder")
METHODS = ("static", "greedy", "regret", "oreo")


def run(n_queries: int = N_QUERIES_HEADLINE, datasets=DATASETS, layout_kinds=LAYOUT_KINDS) -> list[dict]:
    rows = []
    for d in datasets:
        su = make_setup(d, n_queries=n_queries)
        for kind in layout_kinds:
            kw = dict(k=K_PARTITIONS, layout_kind=kind)
            wl = (su.pdf, su.spec, su.workload)
            per_method = {
                "static": mean_costs([run_static(*wl, seed=0, **kw)]),
                "greedy": mean_costs([run_greedy(*wl, alpha=ALPHA, seed=0, **kw)]),
                "regret": mean_costs([run_regret(*wl, alpha=ALPHA, seed=0, **kw)]),
                "oreo": mean_over_seeds(
                    lambda seed: run_oreo(*wl, alpha=ALPHA, seed=seed, **kw)
                ),
            }
            for m in METHODS:
                rows.append({"dataset": d, "layout": kind, "method": m, **per_method[m]})
    return rows


def improvement_vs_static(rows: list[dict]) -> list[dict]:
    """OREO's total-cost improvement over Static per (dataset, layout)."""
    static = {(r["dataset"], r["layout"]): r["total_cost"] for r in rows if r["method"] == "static"}
    out = []
    for r in rows:
        if r["method"] == "oreo":
            s = static[r["dataset"], r["layout"]]
            pct = round((s - r["total_cost"]) / s * 100, 1)
            out.append({"dataset": r["dataset"], "layout": r["layout"], "improvement_pct": pct})
    return out


def format_table(rows: list[dict]) -> str:
    """The result file: the grid, then OREO's improvement over Static per cell."""
    header = ["dataset", "layout", "method", "query", "reorg", "total", "moves"]
    body = [
        [
            r["dataset"], r["layout"], r["method"],
            f"{r['query_cost']:.0f}", f"{r['reorg_cost']:.0f}",
            f"{r['total_cost']:.0f}", f"{r['n_moves']:.0f}",
        ]
        for r in rows
    ]
    return markdown_table(header, body) + "\n\n" + "\n".join(
        f"OREO vs static [{i['dataset']}/{i['layout']}]: {i['improvement_pct']:+.1f}%"
        for i in improvement_vs_static(rows)
    )


def check(rows: list[dict]) -> None:
    """Headline shape: with Qd-tree layouts, OREO beats the static layout."""
    qd = [i["improvement_pct"] for i in improvement_vs_static(rows) if i["layout"] == "qdtree"]
    expect(max(qd) > 0, "with Qd-tree, OREO beats Static")
