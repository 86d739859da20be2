"""Offline oracles over a fixed state space (paper §VI-C).

- :func:`offline_opt_dp` — the true offline optimum of a (uniform-movement)
  metrical task system by dynamic programming; this is the denominator of
  the competitive ratio and the rigorous bound used in the MTS unit tests.
- :func:`offline_optimal_schedule` — the paper's "Offline Optimal": knows
  the workload in advance and switches to the best layout of each template
  segment exactly at the segment boundary (a lower bound on any online
  solution's query cost, with one move per boundary).
- MTS Optimal lives in ``repro.baselines.runners`` (it is OREO's own
  reorganizer run on a fixed, precomputed state space).
"""
from __future__ import annotations

import numpy as np


def offline_opt_dp(costs: np.ndarray, alpha: float) -> tuple[float, list[int]]:
    """Exact offline optimum for uniform MTS.

    ``costs`` is a (T, n) matrix of service costs; switching between any two
    distinct states costs ``alpha``; the initial state is free to choose.
    Returns ``(opt_cost, schedule)`` where ``schedule[t]`` is the state
    servicing query ``t``.

    Standard O(T·n) DP: at each step the best predecessor is either the same
    state (no move) or the global minimum plus α.
    """
    costs = np.asarray(costs, dtype=float)
    T, n = costs.shape
    if T == 0:
        return 0.0, []
    dp = costs[0].copy()
    back = np.zeros((T, n), dtype=int)
    back[0] = np.arange(n)
    for t in range(1, T):
        best_prev = int(np.argmin(dp))
        move_in = dp[best_prev] + alpha
        stay = dp
        use_move = move_in < stay
        back[t] = np.where(use_move, best_prev, np.arange(n))
        dp = np.where(use_move, move_in, stay) + costs[t]
    end = int(np.argmin(dp))
    sched = [0] * T
    s = end
    for t in range(T - 1, -1, -1):
        sched[t] = s
        s = int(back[t][s])
    return float(dp[end]), sched


def offline_optimal_schedule(
    segment_starts: list[int] | tuple[int, ...],
    segment_best_state: list[int],
    n_queries: int,
) -> list[int]:
    """Schedule that serves each template segment on its best layout."""
    sched = np.empty(n_queries, dtype=int)
    starts = list(segment_starts) + [n_queries]
    for i, best in enumerate(segment_best_state):
        sched[starts[i] : starts[i + 1]] = best
    return sched.tolist()


def schedule_cost(costs: np.ndarray, schedule: list[int], alpha: float) -> tuple[float, float, int]:
    """Total (service, movement, n_moves) of an explicit schedule."""
    costs = np.asarray(costs, dtype=float)
    sched = np.asarray(schedule, dtype=int)
    service = float(costs[np.arange(len(sched)), sched].sum())
    moves = int((sched[1:] != sched[:-1]).sum())
    return service, moves * float(alpha), moves
