"""Unit tests for the D-UMTS Reorganizer (Algorithms 1-4) and its theory."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.optimal import offline_opt_dp, schedule_cost
from repro.core.mts import Move, Reorganizer


def u(states, c):
    """Uniform cost dict helper."""
    return {s: c for s in states}


def reference_observe(r: Reorganizer, costs: dict[str, float]) -> str:
    """One query at a time, as :meth:`Reorganizer.serve` must behave: the
    loop it replaced, kept as its reference."""
    served = r.current
    c = costs.get(served)
    if c is None:
        raise KeyError(f"no cost provided for current state {served!r}")
    r.total_service += float(c)

    for s in list(r.active):
        cs = costs.get(s)
        if cs is None:
            raise KeyError(f"no cost provided for active state {s!r}")
        if not (0.0 <= cs <= 1.0):
            raise ValueError(f"service cost must be in [0,1], got {cs}")
        r.counters[s] += float(cs)
    r._phase_len += 1
    r.active = {s for s in r.active if r.counters[s] < r.alpha}

    if served not in r.active:
        if not r.active:
            r._reset_phase()
        else:
            dst = r._draw_next()
            r.moves.append(Move(r.t, served, dst))
            r.total_move += r.alpha
            r.current = dst

    r.t += 1
    return r.current


class TestConstruction:
    def test_requires_states(self):
        with pytest.raises(ValueError):
            Reorganizer([], alpha=10)

    def test_requires_alpha_gt_one(self):
        with pytest.raises(ValueError):
            Reorganizer(["a"], alpha=1.0)

    def test_initial_state_is_member(self):
        r = Reorganizer(["a", "b", "c"], alpha=10, seed=3)
        assert r.current in {"a", "b", "c"}
        assert r.moves == []

    def test_deterministic_in_seed(self):
        costs = [{s: 0.3 + 0.1 * (s == "b") for s in "abc"} for _ in range(200)]
        runs = []
        for _ in range(2):
            r = Reorganizer(list("abc"), alpha=5, seed=9)
            for c in costs:
                r.observe(c)
            runs.append(([(m.t, m.src, m.dst) for m in r.moves], r.current, r.total_cost))
        assert runs[0] == runs[1]


class TestCounters:
    def test_counters_accumulate_costs(self):
        r = Reorganizer(["a", "b"], alpha=10, seed=0)
        r.observe({"a": 0.5, "b": 0.2})
        r.observe({"a": 0.5, "b": 0.2})
        assert r.counters["a"] == pytest.approx(1.0)
        assert r.counters["b"] == pytest.approx(0.4)

    def test_full_state_leaves_active(self):
        r = Reorganizer(["a", "b"], alpha=2, seed=0)
        for _ in range(2):
            r.observe({"a": 1.0, "b": 0.1})
        assert "a" not in r.active

    def test_cost_out_of_range_rejected(self):
        r = Reorganizer(["a"], alpha=2, seed=0)
        with pytest.raises(ValueError):
            r.observe({"a": 1.5})

    def test_missing_cost_rejected(self):
        r = Reorganizer(["a", "b"], alpha=2, seed=0)
        with pytest.raises(KeyError):
            r.observe({"a": 0.1})

    def test_service_cost_accounting(self):
        r = Reorganizer(["a"], alpha=100, seed=0)
        for c in (0.2, 0.3, 0.4):
            r.observe({"a": c})
        assert r.total_service == pytest.approx(0.9)
        assert r.total_move == 0.0


class TestTransitions:
    def test_moves_when_current_fills(self):
        r = Reorganizer(["a", "b"], alpha=2, seed=0)
        cur = r.current
        other = "b" if cur == "a" else "a"
        # Fill only the current state's counter.
        for _ in range(2):
            r.observe({cur: 1.0, other: 0.0})
        assert r.current == other
        assert r.n_moves == 1
        assert r.total_move == pytest.approx(2.0)

    def test_move_targets_are_active(self):
        r = Reorganizer(list("abcdef"), alpha=3, seed=1)
        g = np.random.default_rng(0)
        for _ in range(500):
            r.observe({s: float(g.random() * 0.5) for s in "abcdef"})
        # Every recorded move must have landed on a state that was not full.
        for m in r.moves:
            assert m.dst != m.src

    def test_stay_on_reset_avoids_move(self):
        # Both states fill simultaneously -> phase reset -> stay, zero moves.
        r = Reorganizer(["a", "b"], alpha=2, seed=0)
        for _ in range(4):
            r.observe({"a": 1.0, "b": 1.0})
        assert r.n_moves == 0
        assert r.n_phases >= 2

    def test_phase_ends_with_all_counters_full(self):
        r = Reorganizer(["a", "b", "c"], alpha=2, seed=0)
        phases_before = r.n_phases
        for _ in range(2):
            r.observe(u("abc", 1.0))
        assert r.n_phases == phases_before + 1
        assert all(c == 0.0 for c in r.counters.values())
        assert r.active == {"a", "b", "c"}


class TestDynamicStates:
    def test_added_state_deferred_until_reset(self):
        r = Reorganizer(["a", "b"], alpha=2, seed=0)
        r.add_state("c")
        assert "c" in r.states and "c" not in r.active
        for _ in range(2):
            r.observe({"a": 1.0, "b": 1.0, "c": 0.0})
        assert "c" in r.active  # joined at the reset

    def test_added_state_with_replayed_counter_joins_phase(self):
        r = Reorganizer(["a", "b"], alpha=5, seed=0)
        r.observe({"a": 0.5, "b": 0.5})
        r.add_state("c", counter=0.2)
        assert "c" in r.active
        assert r.counters["c"] == pytest.approx(0.2)

    def test_added_state_with_full_counter_stays_inactive(self):
        r = Reorganizer(["a", "b"], alpha=5, seed=0)
        r.add_state("c", counter=5.0)
        assert "c" in r.states and "c" not in r.active

    def test_median_counter(self):
        r = Reorganizer(["a", "b", "c"], alpha=10, seed=0)
        r.observe({"a": 0.1, "b": 0.5, "c": 0.9})
        assert r.median_counter() == pytest.approx(0.5)

    def test_duplicate_add_is_noop(self):
        r = Reorganizer(["a"], alpha=2, seed=0)
        r.observe({"a": 0.5})
        r.add_state("a", counter=0.0)
        assert r.counters["a"] == pytest.approx(0.5)

    def test_remove_marks_counter_full(self):
        r = Reorganizer(["a", "b", "c"], alpha=4, seed=0)
        victim = next(s for s in "abc" if s != r.current)
        r.remove_state(victim)
        assert victim not in r.states
        assert victim not in r.active
        assert r.counters[victim] == 4

    def test_remove_current_forces_paid_move(self):
        r = Reorganizer(["a", "b"], alpha=3, seed=0)
        cur = r.current
        r.remove_state(cur)
        assert r.current != cur
        assert r.n_moves == 1 and r.moves[0].forced_by_delete
        assert r.total_move == pytest.approx(3.0)

    def test_remove_last_state_raises(self):
        r = Reorganizer(["a"], alpha=2, seed=0)
        with pytest.raises(ValueError):
            r.remove_state("a")

    def test_remove_emptying_active_triggers_reset(self):
        r = Reorganizer(["a", "b"], alpha=2, seed=0)
        # Fill b's counter, then delete a (the only remaining active state
        # besides possibly current) such that active empties.
        for _ in range(2):
            r.observe({"a": 0.0, "b": 1.0})
        # Now b is full; active == {a}. Removing a empties active -> reset.
        phases = r.n_phases
        r.remove_state("a")
        assert r.n_phases == phases + 1
        assert r.active == {"b"}

    def test_remove_unknown_is_noop(self):
        r = Reorganizer(["a", "b"], alpha=2, seed=0)
        r.remove_state("zzz")
        assert r.states == {"a", "b"}


class TestCompetitiveRatio:
    """Empirical check of Theorem IV.1: cost <= 2(1+ln n) * OPT (+ additive α)."""

    @pytest.mark.parametrize("n_states", [2, 4, 8])
    def test_ratio_within_theorem_bound(self, n_states):
        T = 600
        alpha = 5.0
        states = [f"s{i}" for i in range(n_states)]
        g = np.random.default_rng(42)
        costs = g.random((T, n_states)) * 0.5
        opt, _ = offline_opt_dp(costs, alpha)
        ratios = []
        for seed in range(5):
            r = Reorganizer(states, alpha=alpha, gamma=0.0, seed=seed)
            for t in range(T):
                r.observe({s: float(costs[t, i]) for i, s in enumerate(states)})
            ratios.append(r.total_cost / opt)
        bound = 2 * (1 + np.log(n_states))
        # Average over seeds; +1 slack for the additive end-of-stream phase.
        assert np.mean(ratios) <= bound + 1.0, (np.mean(ratios), bound)

    def test_beats_naive_on_drifting_costs(self):
        """On template-drift-like costs, MTS must beat staying put."""
        T, n = 1200, 4
        states = [f"s{i}" for i in range(n)]
        costs = np.full((T, n), 0.6)
        for t in range(T):
            costs[t, (t // 300) % n] = 0.05
        stay_cost = costs[:, 0].sum()  # best single state, no moves
        totals = []
        for seed in range(5):
            r = Reorganizer(states, alpha=5, seed=seed)
            for t in range(T):
                r.observe({s: float(costs[t, i]) for i, s in enumerate(states)})
            totals.append(r.total_cost)
        assert np.mean(totals) < stay_cost

    def test_dp_optimum_is_lower_bound(self):
        T, n = 300, 3
        g = np.random.default_rng(7)
        costs = g.random((T, n))
        opt, sched = offline_opt_dp(costs, 4.0)
        service, move, _ = schedule_cost(costs, sched, 4.0)
        assert opt == pytest.approx(service + move)
        r = Reorganizer([f"s{i}" for i in range(n)], alpha=4.0, seed=0)
        for t in range(T):
            r.observe({f"s{i}": float(costs[t, i]) for i in range(n)})
        assert r.total_cost >= opt - 1e-9


class TestPredictor:
    @pytest.mark.parametrize("seed", [0, 1])  # start on b, on a
    def test_phase_end_records_skip_fractions(self, seed):
        """A 4-query phase: a fills at 2.0 after two queries and stops
        accumulating; b fills at 2.4 after four and ends the phase."""
        r = Reorganizer(["a", "b"], alpha=2, seed=seed)
        for _ in range(4):
            assert r.n_phases == 1
            r.observe({"a": 1.0, "b": 0.6})
        assert r.n_phases == 2
        assert r._last_phase_skip == pytest.approx({"a": 0.5, "b": 0.4})

    def test_gamma_zero_uniform_weights(self):
        r = Reorganizer(list("abc"), alpha=2, gamma=0.0, seed=0)
        r._last_phase_skip = {"a": 0.9, "b": 0.1, "c": 0.1}
        np.testing.assert_allclose(r._weights(["a", "b", "c"]), np.ones(3))

    def test_gamma_biases_to_high_skip(self):
        r = Reorganizer(list("abc"), alpha=2, gamma=2.0, seed=0)
        r._last_phase_skip = {"a": 0.9, "b": 0.3, "c": 0.3}
        w = r._weights(["a", "b", "c"])
        assert w[0] > w[1] == w[2]

    def test_unknown_state_gets_median_weight(self):
        r = Reorganizer(list("abc"), alpha=2, gamma=1.0, seed=0)
        r._last_phase_skip = {"a": 0.8, "b": 0.2}
        w = r._weights(["a", "b", "new"])
        assert w[2] == pytest.approx(0.5)  # median of {0.8, 0.2}

    def test_biased_jump_prefers_predicted_state(self):
        """Monte-carlo: with gamma high, jumps land on the best state."""
        hits = 0
        for seed in range(50):
            r = Reorganizer(list("abcd"), alpha=2, gamma=6.0, seed=seed)
            r._last_phase_skip = {"a": 0.95, "b": 0.4, "c": 0.4, "d": 0.4}
            r.active = {"a", "b", "c", "d"}
            hits += r._draw_next() == "a"
        assert hits >= 35  # uniform would give ~12.5


POOL = list("abcdef")
ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(POOL), st.none() | st.sampled_from([0.0, 1.0, 2.9, 3.0, 5.0])),
        st.tuples(st.just("remove"), st.sampled_from(POOL)),
        st.tuples(st.just("observe"), st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=6, max_size=6)),
    ),
    max_size=80,
)


class TestInvariants:
    @settings(max_examples=300, deadline=None)
    @given(
        ops=ops_st,
        gamma=st.sampled_from([0.0, 1.0, 3.0]),
        seed=st.integers(0, 2**16),
    )
    def test_adversarial_add_remove_observe(self, ops, gamma, seed):
        """active ⊆ states, moves land on active states, active counters < α."""
        r = Reorganizer(["a", "b"], alpha=3.0, gamma=gamma, seed=seed)
        for op in ops:
            n_moves = r.n_moves
            if op[0] == "add":
                r.add_state(op[1], counter=op[2])
            elif op[0] == "remove":
                if r.states == {op[1]}:
                    with pytest.raises(ValueError):
                        r.remove_state(op[1])
                    continue
                r.remove_state(op[1])
            else:
                r.observe(dict(zip(POOL, op[1])))
            assert r.active <= r.states
            assert r.current in r.states
            assert all(r.counters[s] < r.alpha for s in r.active)
            for mv in r.moves[n_moves:]:
                assert mv.dst in r.active and mv.dst != mv.src


def snapshot(r: Reorganizer) -> dict:
    """Everything :meth:`Reorganizer.serve` must leave as the reference does."""
    return {
        "current": r.current, "states": set(r.states), "active": set(r.active),
        "counters": dict(r.counters), "moves": list(r.moves), "t": r.t,
        "n_phases": r.n_phases, "phase_start": r.phase_start,
        "total_service": r.total_service, "total_move": r.total_move,
        "last_phase_skip": dict(r._last_phase_skip),
        "rng": r._rng.bit_generator.state,
    }


between_blocks_st = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"), st.sampled_from(POOL),
            st.sampled_from(["defer", "replay", "full"]),
        ),
        st.tuples(st.just("remove"), st.sampled_from(POOL + ["current"])),
    ),
    max_size=3,
)


class TestServe:
    ALPHA = 2.0

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 80),
        grid=st.booleans(),
        gamma=st.sampled_from([0.0, 1.0, 3.0]),
        seed=st.integers(0, 2**16),
    )
    def test_blocks_match_one_query_at_a_time(self, data, n, grid, gamma, seed):
        """Costs on the grid {0, ¼, ½, 1} make counters hit α exactly; the
        stream is split at random points, with state additions (deferred,
        replayed, pre-filled full) and removals (the current state too)
        between blocks. Every observable, the RNG state included, is equal
        bit for bit after each block."""
        rng = np.random.default_rng(seed)
        costs = (
            rng.choice([0.0, 0.25, 0.5, 1.0], size=(n, len(POOL))) if grid
            else rng.random((n, len(POOL)))
        )
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=6)) if n > 1 else [])
        init = data.draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=4, unique=True))
        got = Reorganizer(init, alpha=self.ALPHA, gamma=gamma, seed=seed)
        want = Reorganizer(init, alpha=self.ALPHA, gamma=gamma, seed=seed)
        for t0, t1 in zip([0] + cuts, cuts + [n]):
            for op in data.draw(between_blocks_st):
                if op[0] == "remove":
                    s = got.current if op[1] == "current" else op[1]
                    if got.states != {s}:
                        got.remove_state(s)
                        want.remove_state(s)
                    continue
                j = POOL.index(op[1])
                counter = {
                    "defer": None,
                    "replay": float(costs[got.phase_start:t0, j].sum()),
                    "full": self.ALPHA + 0.5,
                }[op[2]]
                got.add_state(op[1], counter=counter)
                want.add_state(op[1], counter=counter)
            block = {s: costs[t0:t1, POOL.index(s)] for s in got.states}
            after = got.serve(block)
            assert after == [
                reference_observe(want, dict(zip(POOL, row.tolist()))) for row in costs[t0:t1]
            ]
            assert snapshot(got) == snapshot(want)

    def test_checks_costs_after_a_state_fills(self):
        """A state active at the block's start has every cost checked, also
        on queries after it fills."""
        r = Reorganizer(["a", "b"], alpha=2, seed=0)
        with pytest.raises(ValueError):
            r.serve({"a": np.array([0.1, 0.1, 0.1]), "b": np.array([1.0, 1.0, 1.5])})

    def test_rejects_missing_and_short_columns(self):
        r = Reorganizer(["a", "b"], alpha=2, seed=0)
        with pytest.raises(KeyError):
            r.serve({"a": np.zeros(3)})
        with pytest.raises(ValueError):
            r.serve({"a": np.zeros(3), "b": np.zeros(2)})

    def test_phase_start_follows_resets(self):
        """The query after the last reset, inside a block or between blocks."""
        r = Reorganizer(list("abc"), alpha=2, seed=0)
        assert r.phase_start == 0
        r.serve({s: np.ones(5) for s in "abc"})  # all fill at queries 1 and 3
        assert (r.n_phases, r.phase_start) == (3, 4)
        cur = r.current
        r.serve({s: np.full(2, 0.0 if s == cur else 1.0) for s in "abc"})
        assert r.active == {cur} and r.phase_start == 4
        r.remove_state(cur)  # empties the active set between queries 6 and 7
        assert (r.n_phases, r.phase_start) == (4, 7)
