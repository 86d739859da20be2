"""Baseline reorganization strategies (paper §VI-A3) and oracles (§VI-C).

All online methods consume the *same* candidate layout stream as OREO
(:func:`~repro.core.layout_manager.candidate_stream` with identical
parameters), differing only in the switching policy:

- **Static** — offline: builds one layout from the *entire* workload and
  never reorganizes (the paper's main comparison point).
- **Greedy** — switches to any new candidate whose mean cost over the
  sliding window beats the current layout, ignoring α.
- **Regret** — tracks, for each candidate, the cumulative query-cost saving
  it would have had retroactively over queries serviced on the current
  layout; switches once the best saving exceeds α (inspired by TASM [23]).
- **MTS Optimal** — OREO's reorganizer on a *fixed*, precomputed state
  space holding the best layout per query template.
- **Offline Optimal** — knows the workload; switches to each segment's best
  layout exactly at the template boundary.

Every driver costs a layout against the whole compiled stream when the
layout enters its catalog; a per-query cost is then entry ``t`` of that cost
column. Greedy and Regret read the candidate stream's catalog — the default
layout they start on, each candidate's birth position and every layout's
cost column — whose one memoized entry they share with OREO: the first of
them to run in a cell builds, materializes and costs each layout, and the
others reuse it. Every driver records the layout held after each query and
returns through :func:`repro.core.oreo.settle`.
"""
from __future__ import annotations

import pandas as pd

from repro.baselines.optimal import offline_optimal_schedule
from repro.core.layout_manager import build_layout, candidate_stream, data_sample
from repro.core.mts import Reorganizer
from repro.core.oreo import OreoResult, settle
from repro.layouts.metadata import MaterializedLayout
from repro.workload.datasets import DatasetSpec
from repro.workload.generator import Workload
from repro.workload.queries import Query

# Regret keeps savings for at most this many recent candidates: older window
# layouts are superseded by newer ones for the same workload.
REGRET_MAX_ALTS = 8


def run_static(
    pdf: pd.DataFrame,
    spec: DatasetSpec,
    workload: Workload,
    *,
    k: int,
    layout_kind: str = "qdtree",
    seed: int = 0,
) -> OreoResult:
    """Offline single layout optimized for the whole workload; no reorgs."""
    mat = build_layout(
        pdf, spec, data_sample(pdf, seed), workload.queries, k,
        layout_kind=layout_kind, name=f"static:{layout_kind}", seed=seed,
    )
    cols = {mat.name: mat.cost_vector(workload.compiled)}
    return settle(mat.name, cols, mat.name, [mat.name] * len(workload), 0, 0.0, 0)


def run_greedy(pdf, spec, workload, *, alpha: float = 80.0, k: int,
               layout_kind: str = "qdtree", window: int = 200,
               regen_every: int = 100, seed: int = 0) -> OreoResult:
    """Greedy baseline: always chase the better window layout (§VI-A3)."""
    cands = candidate_stream(
        pdf, spec, workload.compiled, k=k, layout_kind=layout_kind,
        window=window, regen_every=regen_every, seed=seed,
    )
    cols, current, n_moves, after = cands.columns, cands.initial, 0, []
    # Only a birth can switch the layout: the queries between hold it.
    for t, born in cands.births.items():
        after += [current] * (t - len(after))
        win = slice(max(0, t + 1 - window), t + 1)
        for name in born:
            if cols[name][win].mean() < cols[current][win].mean():
                current = name
                n_moves += 1
        after.append(current)
    after += [current] * (len(workload) - len(after))
    return settle(
        f"greedy:{layout_kind}", cols, cands.initial, after, 0, n_moves * alpha, n_moves,
        n_candidates=len(cols) - 1,
    )


def run_regret(pdf, spec, workload, *, alpha: float = 80.0, k: int,
               layout_kind: str = "qdtree", window: int = 200,
               regen_every: int = 100, seed: int = 0) -> OreoResult:
    """Regret baseline: switch when retroactive savings exceed α (§VI-A3)."""
    cands = candidate_stream(
        pdf, spec, workload.compiled, k=k, layout_kind=layout_kind,
        window=window, regen_every=regen_every, seed=seed,
    )
    cols, current, n_moves, after = cands.columns, cands.initial, 0, []
    # Cumulative saving of each alternative vs current, reset on every switch.
    savings: dict[str, float] = {}
    for t in range(len(workload)):
        cur_cost = cols[current][t]
        for alt in savings:
            savings[alt] += cur_cost - cols[alt][t]
        for name in cands.births.get(t, ()):
            savings[name] = 0.0
            while len(savings) > REGRET_MAX_ALTS:
                savings.pop(next(iter(savings)))
        if savings:
            best = max(savings, key=lambda s: (savings[s], s))
            if best != current and savings[best] > alpha:
                current = best
                n_moves += 1
                savings = dict.fromkeys(savings, 0.0)
        after.append(current)
    return settle(
        f"regret:{layout_kind}", cols, cands.initial, after, 0, n_moves * alpha, n_moves,
        n_candidates=len(cols) - 1,
    )


def per_template_layouts(
    pdf: pd.DataFrame,
    spec: DatasetSpec,
    workload: Workload,
    k: int,
    *,
    layout_kind: str = "qdtree",
    seed: int = 0,
) -> dict[int, MaterializedLayout]:
    """Best precomputed layout per query template appearing in the workload."""
    by_tid: dict[int, list[Query]] = {}
    for q in workload.queries:
        by_tid.setdefault(q.template_id, []).append(q)
    sample = data_sample(pdf, seed)
    return {
        tid: build_layout(
            pdf, spec, sample, qs, k, layout_kind=layout_kind,
            name=f"tmpl{tid}:{layout_kind}", seed=seed,
        )
        for tid, qs in sorted(by_tid.items())
    }


def run_mts_optimal(
    pdf: pd.DataFrame,
    spec: DatasetSpec,
    workload: Workload,
    *,
    alpha: float = 80.0,
    gamma: float = 1.0,
    k: int,
    layout_kind: str = "qdtree",
    seed: int = 0,
    layouts: dict[int, MaterializedLayout] | None = None,
) -> OreoResult:
    """OREO's MTS algorithm on a fixed, workload-informed state space (§VI-C)."""
    layouts = layouts or per_template_layouts(
        pdf, spec, workload, k, layout_kind=layout_kind, seed=seed
    )
    stream = workload.compiled
    cols = {m.name: m.cost_vector(stream) for m in layouts.values()}
    reorg = Reorganizer(sorted(cols), alpha=alpha, gamma=gamma, seed=seed)
    initial = reorg.current
    after = reorg.serve(cols)
    return settle(
        f"mts_optimal:{layout_kind}", cols, initial, after, 0, reorg.total_move, reorg.n_moves,
        n_phases=reorg.n_phases, n_states_max=len(cols),
    )


def run_offline_optimal(
    pdf: pd.DataFrame,
    spec: DatasetSpec,
    workload: Workload,
    *,
    alpha: float = 80.0,
    k: int,
    layout_kind: str = "qdtree",
    seed: int = 0,
    layouts: dict[int, MaterializedLayout] | None = None,
) -> OreoResult:
    """Clairvoyant oracle: best per-template layout at every boundary (§VI-C)."""
    layouts = layouts or per_template_layouts(
        pdf, spec, workload, k, layout_kind=layout_kind, seed=seed
    )
    stream = workload.compiled
    cols = {m.name: m.cost_vector(stream) for m in layouts.values()}
    # Each segment is served on its template's layout.
    sched = [layouts[tid].name for tid in offline_optimal_schedule(
        workload.segment_starts, workload.segment_templates, len(workload)
    )]
    n_moves = sum(a != b for a, b in zip(sched, sched[1:]))
    return settle(
        f"offline_optimal:{layout_kind}", cols, sched[0], sched[1:] + sched[-1:], 0,
        n_moves * float(alpha), n_moves, n_states_max=len(cols),
    )
