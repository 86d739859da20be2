"""The REORGANIZER: D-UMTS online algorithm (paper §IV, Algorithms 1–4).

This is the paper's main algorithmic contribution. It extends the classic
randomized algorithm of Borodin, Linial and Saks (BLS) for uniform metrical
task systems:

- Each state (data layout) carries a *counter* that accumulates the service
  cost it would have incurred on every query of the current phase. A state
  whose counter reaches α is "full" and leaves the active set.
- When the current state fills, the algorithm pays the movement cost α and
  jumps to a random non-full state. When every counter is full the phase
  ends: counters reset to 0 and the active set is rebuilt from the *current*
  total state set.
- **Dynamic states (Algorithm 4):** a state added mid-phase is deferred to
  the next phase (the phase behaves as if no addition happened). A state
  removed mid-phase has its counter forced to α; if the removed state is the
  current one, the algorithm transitions as if its counter filled; if no
  active state remains, a new phase starts immediately.
- **Stay-on-reset (§IV-A):** at a phase reset the algorithm keeps its
  current state instead of paying α for the forced initial random move —
  empirically important, asymptotically free.
- **Predictor-biased transitions (§IV-C):** instead of a uniform jump, each
  active state gets weight ∝ (average fraction of data skipped in the last
  phase)^γ; γ=0 recovers the uniform distribution. States with no history
  get the median weight, per the paper.

The reorganizer is deliberately decoupled from layout generation: states are
opaque string keys and service costs arrive from the caller, so the same
class drives simulations, the Spark end-to-end harness, and the pure-MTS
unit tests against the DP optimum.

Queries arrive in blocks: :meth:`Reorganizer.serve` takes each state's cost
slice over a block and returns the state held after each query, exactly as
if the queries came one at a time (:meth:`Reorganizer.observe` is a block
of one). A caller that changes the state space between queries serves the
queries between two changes as one block. :attr:`Reorganizer.phase_start`
is the first query of the current phase, the range a replayed counter of a
state added mid-phase sums over.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np


@dataclass
class Move:
    """One reorganization decision: at query ``t`` switch ``src`` → ``dst``."""

    t: int
    src: str
    dst: str
    # True when the move was forced by deletion of the current state.
    forced_by_delete: bool = False


class Reorganizer:
    """Online D-UMTS decision maker over an evolving set of layout states."""

    def __init__(
        self,
        initial_states,
        *,
        alpha: float,
        gamma: float = 1.0,
        seed: int = 0,
    ) -> None:
        states = list(dict.fromkeys(initial_states))
        if not states:
            raise ValueError("need at least one initial state")
        if alpha <= 1:
            raise ValueError("alpha must exceed 1 (reorg costlier than a scan)")
        self.alpha = float(alpha)
        self.gamma = float(gamma)
        self._rng = np.random.default_rng(seed)

        self.states: set[str] = set(states)
        self.active: set[str] = set(states)
        self.counters: dict[str, float] = {s: 0.0 for s in states}
        # Phase length, for the γ predictor's skip fractions.
        self._phase_len: int = 0
        self._last_phase_skip: dict[str, float] = {}

        self.current: str = str(self._rng.choice(sorted(self.states)))
        self.t: int = 0  # queries observed so far
        self.n_phases: int = 1
        self.moves: list[Move] = []
        self.total_service: float = 0.0
        self.total_move: float = 0.0

    # -- state management queries (the "dynamic" in D-UMTS) -----------------

    def add_state(self, s: str, counter: float | None = None) -> None:
        """Add ``s`` to S.

        With ``counter=None`` the addition is *deferred* exactly as in
        Algorithm 4: the state joins the active set only at the next phase
        reset. With a ``counter`` value, the paper's practical variant
        (§IV-C) is used instead: the state joins the *current* phase with
        its counter pre-filled — either by replaying the phase's queries on
        the new layout or with the median of existing counters, both
        computed by the caller. A pre-filled counter ≥ α joins full.
        """
        if s in self.states:
            return
        self.states.add(s)
        if counter is not None:
            c = float(counter)
            self.counters[s] = c
            if c < self.alpha:
                self.active.add(s)

    def median_counter(self) -> float:
        """Median of the active states' counters (the §IV-C fallback init)."""
        vals = [self.counters[s] for s in self.active] or [0.0]
        return float(np.median(vals))

    def remove_state(self, s: str) -> None:
        """Remove ``s`` from S per Algorithm 4 lines 5–11."""
        if s not in self.states:
            return
        if len(self.states) == 1:
            raise ValueError("cannot remove the last remaining state")
        self.states.discard(s)
        self.active.discard(s)
        self.counters[s] = self.alpha  # mark unswitchable for this phase
        if not self.active:
            self._reset_phase()
        if s == self.current:
            # Forced reorganization away from a deleted layout: movement cost.
            dst = self._draw_next()
            self.moves.append(Move(self.t, s, dst, forced_by_delete=True))
            self.total_move += self.alpha
            self.current = dst

    # -- query processing ---------------------------------------------------

    def observe(self, costs: dict[str, float]) -> str:
        """Process one query with per-state service costs ``costs``; return
        the state held after it. The one-query case of :meth:`serve`."""
        return self.serve({s: (c,) for s, c in costs.items()})[0]

    def serve(self, costs: Mapping[str, Sequence[float]]) -> list[str]:
        """Process a block of queries; ``costs[s]`` is state ``s``'s service
        cost on each query of the block.

        Per query, pays the service cost of the *current* state, adds each
        active state's cost to its counter (Algorithm 3), and transitions
        if the current counter fills. Returns the state held after each
        query (the layout the next query will be served on).

        A counter changes only by additions until it fills, so each active
        state's counter over the block is one sequential ``np.cumsum``,
        which gives the same bits as adding one cost at a time; only the
        fills, the moves and the phase resets are handled one by one, in
        query order, with the same random draws as one query at a time.
        Every cost of each state active at the block's start (or at a phase
        reset inside it) must be present and in [0, 1] over the rest of the
        block, even after that state fills: a stricter check than one query
        at a time makes.
        """
        costs = {s: np.asarray(c, dtype=float) for s, c in costs.items()}
        m = len(costs[self.current])
        after: list[str] = []
        paid = [np.array([self.total_service])]  # summed in query order
        start = 0
        while start < m:
            start = self._serve_phase(costs, start, m, after, paid)
        self.total_service = float(np.cumsum(np.concatenate(paid))[-1])
        return after

    def _serve_phase(self, costs, start: int, m: int, after: list[str], paid: list) -> int:
        """Serve block queries from ``start`` until the block or the phase
        ends; return the first query left. Appends the states held after
        the queries to ``after`` and their paid costs to ``paid``."""
        states = sorted(self.active)
        # Row i: state i's counter, then its counter after each query.
        cum = np.empty((len(states), m - start + 1))
        cum[:, 0] = [self.counters[s] for s in states]
        for i, s in enumerate(states):
            if len(costs[s]) != m:
                raise ValueError(f"state {s!r} has {len(costs[s])} costs for a block of {m}")
            cum[i, 1:] = costs[s][start:]
        if not ((cum[:, 1:] >= 0.0) & (cum[:, 1:] <= 1.0)).all():
            raise ValueError("service costs must be in [0,1]")
        np.cumsum(cum, axis=1, out=cum)
        # Counters never decrease, so a state fills after as many queries as
        # its counter stays below α (m: not in this block).
        fill = ((cum[:, 1:] < self.alpha).sum(axis=1) + start).tolist()
        # A counter stops where its state fills, else runs to the block's end.
        stop = np.minimum(fill, m - 1) - start + 1
        self.counters.update(zip(states, cum[np.arange(len(states)), stop].tolist()))
        end, run_from = m, start  # run_from: first query served on self.current
        for j in sorted(set(fill) - {m}):
            self.active.difference_update(s for s, f in zip(states, fill) if f == j)
            if self.current in self.active:
                continue
            if not self.active:
                end = j + 1
                break
            paid.append(costs[self.current][run_from:j + 1])
            after.extend([self.current] * (j - run_from))
            dst = self._draw_next()
            self.moves.append(Move(self.t + j - start, self.current, dst))
            self.total_move += self.alpha
            self.current = dst
            after.append(dst)
            run_from = j + 1
        paid.append(costs[self.current][run_from:end])
        after.extend([self.current] * (end - run_from))
        self._phase_len += end - start
        self.t += end - start
        if not self.active:
            # Stay on reset: keep the current layout, no movement cost
            # (§IV-A).
            self._reset_phase()
        return end

    @property
    def phase_start(self) -> int:
        """The first query of the current phase: the query after the last
        phase reset (the next query, after a reset between queries)."""
        return self.t - self._phase_len

    # -- totals -------------------------------------------------------------

    @property
    def total_cost(self) -> float:
        return self.total_service + self.total_move

    @property
    def n_moves(self) -> int:
        return len(self.moves)

    # -- internals ----------------------------------------------------------

    def _reset_phase(self) -> None:
        """End the phase: record performance, reset counters, rebuild S_A."""
        if self._phase_len > 0:
            # A counter is the state's exact phase cost: it stops only when
            # the state fills, and a deferred addition has none.
            self._last_phase_skip = {
                s: 1.0 - self.counters[s] / self._phase_len
                for s in self.states
                if s in self.counters
            }
        self.counters = {s: 0.0 for s in self.states}
        self.active = set(self.states)
        self._phase_len = 0
        self.n_phases += 1

    def _weights(self, candidates: list[str]) -> np.ndarray:
        """Transition weights w_s^γ from last-phase skip fractions (§IV-C)."""
        if self.gamma == 0.0 or not self._last_phase_skip:
            return np.ones(len(candidates))
        med = float(np.median(list(self._last_phase_skip.values())))
        w = np.array(
            [max(1e-6, self._last_phase_skip.get(s, med)) for s in candidates]
        )
        return w**self.gamma

    def _draw_next(self) -> str:
        cands = sorted(self.active)
        if not cands:  # pragma: no cover - guarded by callers
            raise RuntimeError("no active state to transition to")
        w = self._weights(cands)
        p = w / w.sum()
        return str(self._rng.choice(cands, p=p))
