"""Table II: ablations of γ, SW vs RS candidate generation, and delay Δ.

Paper setup: logical costs from simulation, reported in units of 10³, on
TPC-H / TPC-DS / Telemetry, defaults α=80, ε=0.08, γ=1, sliding window,
Δ=0, MTS results averaged over 3 runs. Rows:

    default | γ=0 | γ=2 | γ=3 | SW | RS | SW+RS | Δ=0 | Δ=40 | Δ=80

(default == SW == Δ=0 — the paper prints them repeatedly; we run once.)
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.oreo import run_oreo
from repro.experiments.common import (
    ALPHA,
    DATASETS,
    K_PARTITIONS,
    N_QUERIES_SWEEP,
    expect,
    make_setup,
    markdown_table,
    mean_over_seeds_each,
)

DEFAULT = "default (γ=1, SW, Δ=0)"
# (row label, run_oreo keyword overrides)
VARIANTS: list[tuple[str, dict]] = [
    (DEFAULT, {}),
    ("γ=0", {"gamma": 0.0}),
    ("γ=2", {"gamma": 2.0}),
    ("γ=3", {"gamma": 3.0}),
    ("RS", {"strategy": "rs"}),
    ("SW+RS", {"strategy": "sw+rs"}),
    ("Δ=40", {"delta": 40}),
    ("Δ=80", {"delta": 80}),
]


def run(n_queries: int = N_QUERIES_SWEEP) -> dict[str, dict[str, dict]]:
    """Return {variant -> {dataset -> averaged costs}}."""
    setups = {d: make_setup(d, n_queries=n_queries) for d in DATASETS}
    overrides = dict(VARIANTS)
    # Variants with one candidate-generation strategy share a candidate stream.
    by_stream = sorted(overrides, key=lambda v: overrides[v].get("strategy", "sw"))
    per_ds = {
        d: mean_over_seeds_each(
            lambda label, seed: run_oreo(
                su.pdf, su.spec, su.workload, alpha=ALPHA, k=K_PARTITIONS, seed=seed,
                **overrides[label],
            ),
            by_stream,
        )
        for d, su in setups.items()
    }
    return {label: {d: per_ds[d][label] for d in setups} for label, _ in VARIANTS}


def format_table(results: dict[str, dict[str, dict]]) -> str:
    """Render in the paper's shape: query costs | reorg costs, ×10³."""
    header = ["variant"] + [f"query {d}" for d in DATASETS] + [f"reorg {d}" for d in DATASETS]
    base = results[DEFAULT]
    rows = []
    for label, per_ds in results.items():
        def cell(metric, d):
            v = per_ds[d][metric] / 1e3
            b = base[d][metric] / 1e3
            delta = (v - b) / b * 100 if b > 0 else 0.0
            mark = f" ({delta:+.0f}%)" if label != DEFAULT and abs(delta) >= 5 else ""
            return f"{v:.2f}{mark}"

        rows.append(
            [label]
            + [cell("query_cost", d) for d in DATASETS]
            + [cell("reorg_cost", d) for d in DATASETS]
        )
    return markdown_table(header, rows)


def check(results: dict[str, dict[str, dict]]) -> None:
    """The Δ=80 row against the default row."""
    base, late = results[DEFAULT], results["Δ=80"]
    # Guaranteed invariant: Δ is charged at decision time, reorg unchanged.
    same = [math.isclose(v["reorg_cost"], base[d]["reorg_cost"], rel_tol=1e-6) for d, v in late.items()]
    expect(all(same), "Δ=80 leaves the reorganization cost unchanged")
    # Paper shape (in expectation at full scale): Δ=80 raises query cost on
    # average across datasets; small tolerance for seed noise.
    change = np.mean([v["query_cost"] / base[d]["query_cost"] - 1 for d, v in late.items()])
    expect(change > -0.02, "the mean Δ=80 query change is above -2%")
