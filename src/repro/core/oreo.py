"""End-to-end OREO simulation driver (paper Figure 1 workflow).

Ties the LAYOUT MANAGER and the REORGANIZER together over a query stream:

1. at each query where the candidate stream has a birth, the layout manager
   judges the new candidates and may emit state add/remove events (new
   candidate layouts admitted, redundant ones pruned) that are forwarded to
   the reorganizer; no other query changes the state space;
2. the queries between two births are served as one block: each state's
   service costs over the block, computed from partition metadata only, go
   to the reorganizer, which updates its counters and possibly decides to
   reorganize (movement cost α) at any query of the block;
3. the *paid* query cost honours the background-reorganization delay Δ:
   when a switch is decided at query t it only takes effect at query t+Δ —
   queries in between are still served on the outgoing layout, while the
   reorganization cost is charged at decision time (§VI-D5).

Every online method (OREO, the Greedy and Regret baselines, MTS-Optimal)
records only ``after[t]``, the state it holds after query ``t``, and returns
through :func:`settle`, which applies Δ as a shift and charges each query the
cost of the layout it was served on.

Costs follow the paper's logical model: service cost = fraction of data
accessed (∈[0,1]), movement cost = α full-scan equivalents.

OREO, Greedy and Regret read one catalog of layouts, the memoized
:func:`~repro.core.layout_manager.candidate_stream`: the default layout they
start on, each candidate's birth position, and every layout's cost column
over the whole stream, so every per-query cost here is entry ``t`` of a
layout's cost column. The columns include queries not yet seen, but that
changes no decision: a decision at query ``t`` reads only entries up to
``t``, exactly the costs the per-query calls computed.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np
import pandas as pd

from repro.core.layout_manager import (  # noqa: F401 (default_layout is re-exported)
    LayoutManager, candidate_stream, check_admission_args, default_layout,
)
from repro.core.mts import Reorganizer
from repro.workload.datasets import DatasetSpec
from repro.workload.generator import Workload


@dataclass
class OreoResult:
    """Outcome of one simulated run (OREO or a baseline)."""

    method: str
    query_costs: np.ndarray  # paid service cost per query (delay-adjusted)
    reorg_cost: float  # total movement cost in full-scan units
    n_moves: int
    layout_per_query: list[str]  # layout each query was actually served on
    n_phases: int = 0
    n_states_max: int = 0  # peak size of the dynamic state space
    n_candidates: int = 0
    n_admitted: int = 0

    @property
    def query_cost(self) -> float:
        return float(self.query_costs.sum())

    @property
    def total_cost(self) -> float:
        return self.query_cost + self.reorg_cost


def settle(
    method: str, cols: dict[str, np.ndarray], initial: str, after: list[str],
    delta: int, reorg_cost: float, n_moves: int, **stats,
) -> OreoResult:
    """Cost a policy's trajectory under the background-reorganization delay Δ.

    ``after[t]`` is the state the policy holds after query ``t``. A switch
    decided at ``t`` first serves query ``t+1+Δ``, so query ``t`` is served
    on ``after[t-1-Δ]``, or on ``initial`` before that; its cost is
    ``cols[served][t]``. ``stats`` are further :class:`OreoResult` fields.
    """
    n = len(after)
    served = [initial] * min(n, delta + 1) + after[: max(0, n - 1 - delta)]
    # Each run of queries served on one state is one slice of its column.
    runs, t = [], 0
    for s, run in groupby(served):
        n_run = sum(1 for _ in run)
        runs.append(cols[s][t:t + n_run])
        t += n_run
    paid = np.concatenate(runs, dtype=float) if runs else np.zeros(0)
    return OreoResult(
        method=method, query_costs=paid, reorg_cost=reorg_cost, n_moves=n_moves,
        layout_per_query=served, **stats,
    )


def run_oreo(
    pdf: pd.DataFrame,
    spec: DatasetSpec,
    workload: Workload,
    *,
    alpha: float = 80.0,
    gamma: float = 1.0,
    epsilon: float = 0.08,
    window: int = 200,
    regen_every: int = 100,
    k: int | None = None,
    layout_kind: str = "qdtree",
    strategy: str = "sw",
    delta: int = 0,
    eval_sample_size: int = 50,
    max_states: int = 10,
    admit_mode: str = "replay",
    seed: int = 0,
) -> OreoResult:
    """Run OREO over ``workload`` on dataset ``pdf`` and return logical costs.

    Defaults mirror the paper's defaults: α=80, ε=0.08, γ=1, sliding window
    of 200 queries, Qd-tree layouts. ``k`` defaults to ~1 partition per
    1/50th of the data (the paper keeps partitions at 1–2M rows out of
    tens of millions, i.e. a few dozen partitions).

    ``admit_mode`` controls how states admitted mid-phase enter the
    reorganizer: ``"replay"`` pre-fills the new counter by replaying the
    current phase's queries on the new layout's metadata (§IV-C), letting
    it join the phase immediately; ``"median"`` initializes the counter to
    the median of active counters; ``"defer"`` is the strict Algorithm 4
    behaviour (state joins only at the next phase reset).
    """
    if admit_mode not in ("replay", "median", "defer"):
        raise ValueError(f"unknown admit_mode {admit_mode!r}")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    check_admission_args(epsilon, max_states)
    if k is None:
        k = max(8, min(64, len(pdf) // 1_000))
    cands = candidate_stream(
        pdf, spec, workload.compiled, k=k, layout_kind=layout_kind, strategy=strategy,
        window=window, regen_every=regen_every, seed=seed,
    )
    manager = LayoutManager(
        cands, epsilon=epsilon, eval_sample_size=eval_sample_size,
        max_states=max_states, seed=seed,
    )
    cols = cands.columns
    reorg = Reorganizer([cands.initial], alpha=alpha, gamma=gamma, seed=seed)

    # Only a candidate's birth changes the state space: serve the queries
    # between two births as one block.
    after: list[str] = []
    n_states_max = 1
    t0 = 0
    for t in cands.births:
        after += reorg.serve({s: cols[s][t0:t] for s in reorg.states})
        t0 = t
        for ev in manager.step(t, reorg.current):
            if ev.kind == "add":
                if admit_mode == "replay":
                    counter = float(cols[ev.name][reorg.phase_start:t].sum())
                elif admit_mode == "median":
                    counter = reorg.median_counter()
                else:
                    counter = None
                reorg.add_state(ev.name, counter=counter)
            else:
                reorg.remove_state(ev.name)
        n_states_max = max(n_states_max, len(reorg.states))
    after += reorg.serve({s: cols[s][t0:] for s in reorg.states})

    return settle(
        "oreo", cols, cands.initial, after, delta, reorg.total_move, reorg.n_moves,
        n_phases=reorg.n_phases, n_states_max=n_states_max,
        n_candidates=len(cols) - 1, n_admitted=manager.n_admitted,
    )
