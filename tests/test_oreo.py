"""Integration tests for the OREO simulation driver (repro.core.oreo)."""
import numpy as np
import pytest

from repro.core.layout_manager import LayoutManager, candidate_stream
from repro.core.mts import Reorganizer
from repro.core.oreo import OreoResult, default_layout, run_oreo, settle
from repro.workload import datasets as ds
from repro.workload.generator import generate_workload
from tests.test_mts import reference_observe


@pytest.fixture(scope="module")
def pdf():
    return ds.tpch_lite_pdf(sf=0.01, seed=41)


@pytest.fixture(scope="module")
def workload():
    return generate_workload("tpch_lite", n_queries=1500, n_segments=6, seed=43)


@pytest.fixture(scope="module")
def result(pdf, workload):
    return run_oreo(pdf, ds.TPCH_LITE, workload, k=16, alpha=20, seed=0)


class TestDelayedSwitcher:
    """Δ-delayed switching, as :func:`settle` applies it to a trajectory."""

    COLS = {s: np.arange(10, dtype=float) + i for i, s in enumerate("abc")}

    def served(self, after, delta):
        r = settle("m", self.COLS, "a", after, delta, 0.0, 0)
        assert r.query_costs.tolist() == [self.COLS[s][t] for t, s in enumerate(r.layout_per_query)]
        return r.layout_per_query

    def test_no_delay_switch_next_query(self):
        # Switch to b decided while processing query 0.
        assert self.served(["b", "b", "b"], delta=0) == ["a", "b", "b"]

    def test_delay_serves_old_layout(self):
        assert self.served(["b"] * 6, delta=3) == ["a", "a", "a", "a", "b", "b"]

    def test_chained_decisions_apply_in_order(self):
        after = ["b"] * 5 + ["c"] * 5  # b decided at query 0, c at query 5
        served = self.served(after, delta=1)
        assert served[2] == "b"
        assert served[7] == "c"
        assert served == ["a", "a"] + ["b"] * 5 + ["c"] * 3


class TestDefaultLayout:
    def test_partitions_by_sort_column(self, pdf):
        mat = default_layout(pdf, ds.TPCH_LITE, 16)
        assert mat.n_partitions == 16
        assert mat.name.startswith("fixed:l_shipdate")
        assert mat.n_rows == len(pdf)


class TestRunOreo:
    def test_result_shape(self, result, workload):
        assert isinstance(result, OreoResult)
        assert len(result.query_costs) == len(workload)
        assert len(result.layout_per_query) == len(workload)
        assert ((result.query_costs >= 0) & (result.query_costs <= 1)).all()

    def test_cost_accounting(self, result):
        assert result.total_cost == pytest.approx(
            result.query_cost + result.reorg_cost
        )
        assert result.reorg_cost == pytest.approx(result.n_moves * 20.0)

    def test_layouts_evolve(self, result):
        assert result.n_candidates > 0
        assert result.n_admitted >= 1
        assert len(set(result.layout_per_query)) > 1

    def test_first_query_served_on_default(self, result):
        assert result.layout_per_query[0].startswith("fixed:")

    def test_deterministic_in_seed(self, pdf, workload):
        a = run_oreo(pdf, ds.TPCH_LITE, workload, k=16, alpha=20, seed=5)
        b = run_oreo(pdf, ds.TPCH_LITE, workload, k=16, alpha=20, seed=5)
        assert a.total_cost == b.total_cost
        assert a.layout_per_query == b.layout_per_query

    def test_delay_does_not_change_reorg_cost(self, pdf, workload):
        a = run_oreo(pdf, ds.TPCH_LITE, workload, k=16, alpha=20, seed=1, delta=0)
        b = run_oreo(pdf, ds.TPCH_LITE, workload, k=16, alpha=20, seed=1, delta=20)
        assert b.reorg_cost == a.reorg_cost  # cost charged at decision time

    def test_delay_increases_query_cost(self, pdf, workload):
        """§VI-D5: serving on the outdated layout raises query costs."""
        a = run_oreo(pdf, ds.TPCH_LITE, workload, k=16, alpha=20, seed=1, delta=0)
        b = run_oreo(pdf, ds.TPCH_LITE, workload, k=16, alpha=20, seed=1, delta=60)
        assert b.query_cost >= a.query_cost

    def test_admit_modes_run(self, pdf, workload):
        for mode in ("replay", "median", "defer"):
            r = run_oreo(
                pdf, ds.TPCH_LITE, workload, k=16, alpha=20, seed=0, admit_mode=mode
            )
            assert r.total_cost > 0

    def test_bad_admit_mode_rejected(self, pdf, workload):
        with pytest.raises(ValueError):
            run_oreo(pdf, ds.TPCH_LITE, workload, admit_mode="nope")

    def test_negative_delta_rejected(self, pdf, workload):
        with pytest.raises(ValueError):
            run_oreo(pdf, ds.TPCH_LITE, workload, delta=-1)

    def test_higher_alpha_fewer_moves(self, pdf, workload):
        lo = run_oreo(pdf, ds.TPCH_LITE, workload, k=16, alpha=10, seed=2)
        hi = run_oreo(pdf, ds.TPCH_LITE, workload, k=16, alpha=200, seed=2)
        assert hi.n_moves <= lo.n_moves

    def test_states_bounded_by_max_states(self, pdf, workload):
        r = run_oreo(
            pdf, ds.TPCH_LITE, workload, k=16, alpha=20, seed=0, max_states=4
        )
        # n_states_max counts the reorganizer's total set; pruning keeps the
        # *space* at max_states, transiently +1 while an add/remove settles.
        assert r.n_states_max <= 5


def reference_run(pdf, workload, *, admit_mode, alpha, k=16, seed=0):
    """``run_oreo`` one query at a time: the layout manager sees every query
    and :func:`tests.test_mts.reference_observe` serves each one."""
    cands = candidate_stream(pdf, ds.TPCH_LITE, workload.compiled, k=k, seed=seed)
    cols = cands.columns
    man = LayoutManager(cands, seed=seed)
    reorg = Reorganizer([cands.initial], alpha=alpha, seed=seed)
    after, phase_start, last_phase = [], 0, reorg.n_phases
    for t in range(len(workload)):
        for ev in man.step(t, reorg.current):
            if ev.kind == "remove":
                reorg.remove_state(ev.name)
                continue
            if admit_mode == "replay":
                counter = float(cols[ev.name][phase_start:t].sum())
            elif admit_mode == "median":
                counter = reorg.median_counter()
            else:
                counter = None
            reorg.add_state(ev.name, counter=counter)
        after.append(reference_observe(reorg, {s: cols[s][t] for s in reorg.states}))
        if reorg.n_phases != last_phase:
            last_phase, phase_start = reorg.n_phases, t + 1
    return settle("oreo", cols, cands.initial, after, 0, reorg.total_move, reorg.n_moves,
                  n_phases=reorg.n_phases)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("admit_mode", ["replay", "median", "defer"])
def test_blocks_between_births_match_one_query_at_a_time(pdf, workload, admit_mode, seed):
    """Serving the queries between two candidate births as one block
    decides and pays exactly as serving them one at a time."""
    got = run_oreo(pdf, ds.TPCH_LITE, workload, k=16, alpha=5, seed=seed, admit_mode=admit_mode)
    want = reference_run(pdf, workload, admit_mode=admit_mode, alpha=5, seed=seed)
    assert got.n_moves > 0 and got.n_phases > 2
    assert got.layout_per_query == want.layout_per_query
    assert got.query_costs.tolist() == want.query_costs.tolist()
    assert (got.reorg_cost, got.n_moves, got.n_phases) == (
        want.reorg_cost, want.n_moves, want.n_phases
    )
