"""Figure 5 (as a table): effect of the reorganization cost α.

Paper: as α grows, total gains from dynamic reorganization shrink and the
number of layout changes drops (35 changes at α=10 → 18 at α=300), with the
decrease non-monotonic because the strategy adapts in steps.
"""
from __future__ import annotations

from repro.core.oreo import run_oreo
from repro.experiments.common import (
    K_PARTITIONS,
    N_QUERIES_SWEEP,
    expect,
    make_setup,
    markdown_table,
    mean_over_seeds_each,
)

ALPHAS = (10, 20, 40, 80, 120, 170, 230, 300)
DATASET = "tpch_lite"


def run(alphas=ALPHAS, n_queries: int = N_QUERIES_SWEEP) -> list[dict]:
    su = make_setup(DATASET, n_queries=n_queries)
    res = mean_over_seeds_each(
        lambda a, seed: run_oreo(
            su.pdf, su.spec, su.workload, alpha=float(a), k=K_PARTITIONS, seed=seed
        ),
        alphas,
    )
    return [{"alpha": a, **res[a]} for a in alphas]


def format_table(rows: list[dict]) -> str:
    header = ["alpha", "query", "reorg", "total", "moves"]
    body = [
        [r["alpha"], f"{r['query_cost']:.0f}", f"{r['reorg_cost']:.0f}",
         f"{r['total_cost']:.0f}", f"{r['n_moves']:.1f}"]
        for r in rows
    ]
    return markdown_table(header, body)


def check(rows: list[dict]) -> None:
    """Paper shape: layout changes decrease as reorganization gets pricier."""
    expect(rows[0]["n_moves"] > rows[-1]["n_moves"], "moves fall from the lowest α to the highest")
