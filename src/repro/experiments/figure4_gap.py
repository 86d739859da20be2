"""Figure 4 (as a table): gap between OREO and the switching oracles.

Paper: on TPC-H and TPC-DS, OREO's query costs are within 14%/17% of MTS
Optimal (fixed precomputed state space, same MTS algorithm) and 74%/44%
larger than Offline Optimal (clairvoyant per-segment switching). Offline
Optimal makes 20 layout changes; OREO 22/29; MTS Optimal 27/30.
"""
from __future__ import annotations

from repro.baselines.runners import (
    per_template_layouts,
    run_mts_optimal,
    run_offline_optimal,
    run_static,
)
from repro.core.oreo import run_oreo
from repro.experiments.common import (
    ALPHA,
    K_PARTITIONS,
    N_QUERIES_HEADLINE,
    expect,
    make_setup,
    markdown_table,
    mean_costs,
    mean_over_seeds,
)

DATASETS = ("tpch_lite", "tpcds_lite")


def run(n_queries: int = N_QUERIES_HEADLINE, datasets=DATASETS) -> list[dict]:
    rows = []
    for d in datasets:
        su = make_setup(d, n_queries=n_queries)
        kw = dict(k=K_PARTITIONS)
        layouts = per_template_layouts(su.pdf, su.spec, su.workload, K_PARTITIONS, seed=0)

        oreo = mean_over_seeds(
            lambda seed: run_oreo(su.pdf, su.spec, su.workload, alpha=ALPHA, seed=seed, **kw)
        )
        mts = mean_over_seeds(
            lambda seed: run_mts_optimal(
                su.pdf, su.spec, su.workload, alpha=ALPHA, seed=seed, layouts=layouts, **kw
            )
        )
        off = run_offline_optimal(
            su.pdf, su.spec, su.workload, alpha=ALPHA, seed=0, layouts=layouts, **kw
        )
        static = run_static(su.pdf, su.spec, su.workload, seed=0, **kw)

        for name, r in (
            ("oreo", oreo),
            ("mts_optimal", mts),
            ("offline_optimal", mean_costs([off])),
            ("static", mean_costs([static])),
        ):
            rows.append({"dataset": d, "method": name, **r})
    return rows


def gaps(rows: list[dict]) -> list[dict]:
    """Query-cost gaps of OREO vs each oracle, per dataset (paper's metric)."""
    by = {(r["dataset"], r["method"]): r for r in rows}
    out = []
    for d in {r["dataset"] for r in rows}:
        o, m, f = by[(d, "oreo")], by[(d, "mts_optimal")], by[(d, "offline_optimal")]
        out.append(
            {
                "dataset": d,
                "vs_mts_optimal_pct": round((o["query_cost"] / m["query_cost"] - 1) * 100, 1),
                "vs_offline_optimal_pct": round((o["query_cost"] / f["query_cost"] - 1) * 100, 1),
                "moves_oreo": round(o["n_moves"], 1),
                "moves_mts_optimal": round(m["n_moves"], 1),
                "moves_offline": round(f["n_moves"]),
            }
        )
    return sorted(out, key=lambda r: r["dataset"])


def format_table(rows: list[dict]) -> str:
    """The result file: the costs per method, then OREO's gaps per dataset."""
    header = ["dataset", "method", "query", "reorg", "total", "moves"]
    body = [
        [r["dataset"], r["method"], f"{r['query_cost']:.0f}", f"{r['reorg_cost']:.0f}",
         f"{r['total_cost']:.0f}", f"{r['n_moves']:.0f}"]
        for r in rows
    ]
    return markdown_table(header, body) + "\n\n" + "\n".join(
        f"{g['dataset']}: query cost {g['vs_mts_optimal_pct']:+.1f}% vs MTS Optimal, "
        f"{g['vs_offline_optimal_pct']:+.1f}% vs Offline Optimal; moves "
        f"oreo={g['moves_oreo']} mts={g['moves_mts_optimal']} offline={g['moves_offline']}"
        for g in gaps(rows)
    )


def check(rows: list[dict]) -> None:
    """Paper shape: the clairvoyant oracle has the lowest query cost."""
    expect(all(g["vs_offline_optimal_pct"] > 0 for g in gaps(rows)), "Offline Optimal has the lowest query cost")
