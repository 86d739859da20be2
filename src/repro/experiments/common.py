"""Shared experiment configuration and helpers."""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.core.oreo import OreoResult, run_oreo
from repro.workload import datasets as ds
from repro.workload.generator import Workload, generate_workload

# Paper defaults (§VI-A3): α=80, window=200, ε=0.08, γ=1.
ALPHA = 80.0
WINDOW = 200
EPSILON = 0.08
GAMMA = 1.0
K_PARTITIONS = 24  # paper: 1–2M-row partitions => a few dozen partitions
SIM_SF = 0.02  # simulation dataset scale (12K rows; metadata-only costing)
N_SEGMENTS = 20  # paper: 20 template segments
MTS_SEEDS = (0, 1, 2)  # paper: average of three runs for MTS-based methods

# Stream lengths: the headline experiments use the paper's 30K queries; the
# parameter sweeps use 12K to keep the full grid tractable. REPRO_FAST=1
# shrinks everything for smoke runs.
FAST = os.environ.get("REPRO_FAST", "0") == "1"
N_QUERIES_HEADLINE = 3_000 if FAST else 30_000
N_QUERIES_SWEEP = 2_000 if FAST else 12_000
DATASETS = ("tpch_lite", "tpcds_lite", "telemetry")


@dataclass(frozen=True)
class SimSetup:
    """One dataset + workload pair used across an experiment."""

    name: str
    pdf: object
    spec: ds.DatasetSpec
    workload: Workload


def make_setup(name: str, *, n_queries: int, data_seed: int = 1, wl_seed: int = 2) -> SimSetup:
    pdf = ds.build_pdf(name, sf=SIM_SF, seed=data_seed)
    wl = generate_workload(
        name, n_queries=n_queries, n_segments=N_SEGMENTS, seed=wl_seed
    )
    return SimSetup(name=name, pdf=pdf, spec=ds.SPECS[name], workload=wl)


def mean_over_seeds(fn, seeds=None) -> dict:
    """Run ``fn(seed)`` -> OreoResult per seed; average the scalar outputs.

    ``seeds`` defaults to the module-level ``MTS_SEEDS`` at call time so
    tests can shrink the seed set by monkeypatching.
    """
    return _mean([fn(s) for s in (MTS_SEEDS if seeds is None else seeds)])


def mean_over_seeds_each(fn, values) -> dict:
    """``{v: mean_over_seeds(lambda seed: fn(v, seed))}`` for every ``v`` in
    ``values``, with the seed loop outermost.

    Runs with one seed and different ``values`` are then adjacent, so those
    that share a candidate stream reuse its one memoized entry. Each average
    is still taken in seed order, so the results are those of
    :func:`mean_over_seeds`.
    """
    runs = {(v, s): fn(v, s) for s in MTS_SEEDS for v in values}
    return {v: _mean([runs[v, s] for s in MTS_SEEDS]) for v in values}


def _mean(rs: list[OreoResult]) -> dict:
    return {
        "query_cost": float(np.mean([r.query_cost for r in rs])),
        "reorg_cost": float(np.mean([r.reorg_cost for r in rs])),
        "total_cost": float(np.mean([r.total_cost for r in rs])),
        "n_moves": float(np.mean([r.n_moves for r in rs])),
        "n_states_max": float(np.mean([r.n_states_max for r in rs])),
    }


def fmt_row(cells, widths) -> str:
    return " | ".join(str(c).ljust(w) for c, w in zip(cells, widths))


def markdown_table(header: list[str], rows: list[list]) -> str:
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(header)
    ]
    out = [fmt_row(header, widths), fmt_row(["-" * w for w in widths], widths)]
    out += [fmt_row(r, widths) for r in rows]
    return "\n".join(out)
