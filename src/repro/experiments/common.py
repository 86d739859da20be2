"""Shared experiment configuration and helpers."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.oreo import OreoResult, run_oreo
from repro.workload import datasets as ds
from repro.workload.generator import Workload, generate_workload

# Paper default α=80 (§VI-A3); window=200, ε=0.08 and γ=1 are the defaults
# of ``run_oreo`` itself.
ALPHA = 80.0
K_PARTITIONS = 24  # paper: 1–2M-row partitions => a few dozen partitions
SIM_SF = 0.02  # simulation dataset scale (12K rows; metadata-only costing)
N_SEGMENTS = 20  # paper: 20 template segments
MTS_SEEDS = (0, 1, 2)  # paper: average of three runs for MTS-based methods

# Stream lengths: the headline experiments use the paper's 30K queries; the
# parameter sweeps use 12K to keep the full grid tractable.
N_QUERIES_HEADLINE = 30_000
N_QUERIES_SWEEP = 12_000
DATASETS = ("tpch_lite", "tpcds_lite", "telemetry")


@dataclass(frozen=True)
class SimSetup:
    """One dataset + workload pair used across an experiment."""

    pdf: object
    spec: ds.DatasetSpec
    workload: Workload


def make_setup(name: str, *, n_queries: int) -> SimSetup:
    """Dataset ``name`` (data seed 1) and its stream (workload seed 2)."""
    pdf = ds.build_pdf(name, sf=SIM_SF, seed=1)
    wl = generate_workload(name, n_queries=n_queries, n_segments=N_SEGMENTS, seed=2)
    return SimSetup(pdf=pdf, spec=ds.SPECS[name], workload=wl)


def mean_over_seeds(fn) -> dict:
    """Run ``fn(seed)`` -> OreoResult per seed; average the scalar outputs.

    The seeds are the module-level ``MTS_SEEDS``, read at call time so tests
    can shrink the seed set by monkeypatching.
    """
    return mean_costs([fn(s) for s in MTS_SEEDS])


def mean_over_seeds_each(fn, values) -> dict:
    """``{v: mean_over_seeds(lambda seed: fn(v, seed))}`` for every ``v`` in
    ``values``, with the seed loop outermost.

    Runs with one seed and different ``values`` are then adjacent, so those
    that share a candidate stream reuse its one memoized entry. Each average
    is still taken in seed order, so the results are those of
    :func:`mean_over_seeds`.
    """
    runs = {(v, s): fn(v, s) for s in MTS_SEEDS for v in values}
    return {v: mean_costs([runs[v, s] for s in MTS_SEEDS]) for v in values}


def mean_costs(rs: list[OreoResult]) -> dict:
    """The mean cost, move and state-space figures of ``rs``, as a table row."""
    return {
        "query_cost": float(np.mean([r.query_cost for r in rs])),
        "reorg_cost": float(np.mean([r.reorg_cost for r in rs])),
        "total_cost": float(np.mean([r.total_cost for r in rs])),
        "n_moves": float(np.mean([r.n_moves for r in rs])),
        "n_states_max": float(np.mean([r.n_states_max for r in rs])),
    }


def expect(ok: bool, shape: str) -> None:
    """Raise ``ValueError`` unless ``ok``: a table breaks the paper's ``shape``."""
    if not ok:
        raise ValueError(f"shape check failed: {shape}")


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
