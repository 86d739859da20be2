"""Figure 6 (as a table): effect of the admission distance threshold ε.

Paper: larger ε shrinks the dynamic state space and slightly raises query
cost; overall performance is not very sensitive to ε.
"""
from __future__ import annotations

from repro.core.oreo import run_oreo
from repro.experiments.common import (
    ALPHA,
    K_PARTITIONS,
    N_QUERIES_SWEEP,
    expect,
    make_setup,
    markdown_table,
    mean_over_seeds_each,
)

EPSILONS = (0.0, 0.02, 0.04, 0.08, 0.16, 0.32)
DATASET = "tpch_lite"


def run(epsilons=EPSILONS, n_queries: int = N_QUERIES_SWEEP) -> list[dict]:
    su = make_setup(DATASET, n_queries=n_queries)
    res = mean_over_seeds_each(
        lambda eps, seed: run_oreo(
            su.pdf, su.spec, su.workload,
            alpha=ALPHA, epsilon=float(eps), k=K_PARTITIONS, seed=seed,
        ),
        epsilons,
    )
    return [{"epsilon": eps, **res[eps]} for eps in epsilons]


def format_table(rows: list[dict]) -> str:
    header = ["epsilon", "query", "reorg", "total", "moves", "peak states"]
    body = [
        [r["epsilon"], f"{r['query_cost']:.0f}", f"{r['reorg_cost']:.0f}",
         f"{r['total_cost']:.0f}", f"{r['n_moves']:.1f}", f"{r['n_states_max']:.1f}"]
        for r in rows
    ]
    return markdown_table(header, body)


def check(rows: list[dict]) -> None:
    """Paper shape: larger ε shrinks the dynamic state space."""
    expect(rows[0]["n_states_max"] >= rows[-1]["n_states_max"], "peak states do not grow with ε")
