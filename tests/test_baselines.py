"""Tests for Static/Greedy/Regret and the offline oracles (§VI-A3, §VI-C)."""
import itertools

import numpy as np
import pytest

from repro.baselines.optimal import (
    offline_opt_dp,
    offline_optimal_schedule,
    schedule_cost,
)
from repro.baselines.runners import (
    per_template_layouts,
    run_greedy,
    run_mts_optimal,
    run_offline_optimal,
    run_regret,
    run_static,
)
from repro.core import layout_manager
from repro.core.oreo import run_oreo
from repro.workload import datasets as ds
from repro.workload.generator import generate_workload
from repro.workload.queries import compile_queries
from tests.test_goldens import GOLDENS, SETUPS, outputs

ALPHA = 20.0


@pytest.fixture(scope="module")
def pdf():
    return ds.tpch_lite_pdf(sf=0.01, seed=47)


@pytest.fixture(scope="module")
def workload():
    return generate_workload("tpch_lite", n_queries=1500, n_segments=6, seed=53)


@pytest.fixture(scope="module")
def all_results(pdf, workload):
    kw = dict(k=16, seed=0)
    return {
        "static": run_static(pdf, ds.TPCH_LITE, workload, **kw),
        "greedy": run_greedy(pdf, ds.TPCH_LITE, workload, alpha=ALPHA, **kw),
        "regret": run_regret(pdf, ds.TPCH_LITE, workload, alpha=ALPHA, **kw),
        "oreo": run_oreo(pdf, ds.TPCH_LITE, workload, alpha=ALPHA, **kw),
        "mts_opt": run_mts_optimal(pdf, ds.TPCH_LITE, workload, alpha=ALPHA, **kw),
        "off_opt": run_offline_optimal(pdf, ds.TPCH_LITE, workload, alpha=ALPHA, **kw),
    }


class TestDpOptimal:
    def test_empty(self):
        assert offline_opt_dp(np.zeros((0, 3)), 2.0) == (0.0, [])

    def test_no_move_when_alpha_huge(self):
        costs = np.array([[0.1, 0.9], [0.9, 0.1], [0.1, 0.9]])
        opt, sched = offline_opt_dp(costs, alpha=100.0)
        assert len(set(sched)) == 1
        assert opt == pytest.approx(min(costs.sum(axis=0)))

    def test_moves_when_alpha_tiny(self):
        costs = np.array([[0.1, 0.9], [0.9, 0.1], [0.1, 0.9]])
        opt, sched = offline_opt_dp(costs, alpha=0.01)
        assert sched == [0, 1, 0]
        assert opt == pytest.approx(0.3 + 0.02)

    def test_matches_schedule_cost(self):
        g = np.random.default_rng(3)
        costs = g.random((50, 4))
        opt, sched = offline_opt_dp(costs, 2.0)
        service, move, _ = schedule_cost(costs, sched, 2.0)
        assert opt == pytest.approx(service + move)

    def test_brute_force_small(self):
        """DP equals brute force over all 2^T schedules on a tiny instance."""
        import itertools

        g = np.random.default_rng(9)
        costs = g.random((6, 2))
        alpha = 0.7
        best = np.inf
        for sched in itertools.product(range(2), repeat=6):
            s, m, _ = schedule_cost(costs, list(sched), alpha)
            best = min(best, s + m)
        opt, _ = offline_opt_dp(costs, alpha)
        assert opt == pytest.approx(best)


class TestScheduleHelpers:
    def test_offline_optimal_schedule(self):
        sched = offline_optimal_schedule([0, 4, 7], [2, 0, 1], 10)
        assert sched == [2, 2, 2, 2, 0, 0, 0, 1, 1, 1]

    def test_schedule_cost_counts_moves(self):
        costs = np.ones((4, 2)) * 0.5
        service, move, n = schedule_cost(costs, [0, 1, 1, 0], 3.0)
        assert (service, move, n) == (2.0, 6.0, 2)


class TestMethodProperties:
    def test_static_never_reorganizes(self, all_results):
        r = all_results["static"]
        assert r.n_moves == 0 and r.reorg_cost == 0.0
        assert len(set(r.layout_per_query)) == 1

    def test_greedy_moves_most(self, all_results):
        g = all_results["greedy"]
        assert g.n_moves >= all_results["oreo"].n_moves
        assert g.n_moves >= all_results["regret"].n_moves

    def test_greedy_query_cost_beats_static_and_regret(self, all_results):
        """§VI-B: Greedy chases query savings, ignoring reorganization cost.

        (At full 30K-query scale Greedy has the lowest query cost among the
        online methods; at this test's small scale we assert the robust
        subset: it beats the static layout and the conservative Regret.)
        """
        g = all_results["greedy"].query_cost
        assert g <= all_results["static"].query_cost * 1.05
        assert g <= all_results["regret"].query_cost * 1.05

    def test_regret_is_conservative(self, all_results):
        assert all_results["regret"].reorg_cost <= all_results["greedy"].reorg_cost

    def test_offline_optimal_has_lowest_query_cost(self, all_results):
        off = all_results["off_opt"].query_cost
        for name in ("static", "oreo", "mts_opt", "regret"):
            assert off <= all_results[name].query_cost + 1e-9, name

    def test_offline_optimal_one_move_per_boundary(self, all_results, workload):
        # Consecutive segments may share a best layout, so <= boundaries.
        assert all_results["off_opt"].n_moves <= len(workload.segment_starts) - 1

    def test_all_costs_in_range(self, all_results, workload):
        for name, r in all_results.items():
            assert len(r.query_costs) == len(workload), name
            assert ((r.query_costs >= 0) & (r.query_costs <= 1)).all(), name

    def test_reorg_cost_is_moves_times_alpha(self, all_results):
        for name, r in all_results.items():
            if name == "static":
                continue
            assert r.reorg_cost == pytest.approx(r.n_moves * ALPHA), name


class TestPerTemplateLayouts:
    def test_one_layout_per_observed_template(self, pdf, workload):
        tl = per_template_layouts(pdf, ds.TPCH_LITE, workload, 16, seed=0)
        assert set(tl) == set(workload.segment_templates)

    def test_specialized_beats_static_on_own_template(self, pdf, workload, all_results):
        tl = per_template_layouts(pdf, ds.TPCH_LITE, workload, 16, seed=0)
        static = all_results["static"]
        starts = list(workload.segment_starts) + [len(workload)]
        wins = 0
        for si, tid in enumerate(workload.segment_templates):
            qs = workload.queries[starts[si] : starts[si + 1]]
            spec_c = tl[tid].cost_vector(compile_queries(qs)).mean()
            stat_c = np.mean(
                [c for c, q in zip(all_results["static"].query_costs[starts[si]:starts[si+1]], qs)]
            )
            wins += spec_c <= stat_c + 1e-9
        assert wins >= len(workload.segment_templates) * 0.6

    def test_mts_optimal_uses_fixed_space(self, all_results, workload):
        r = all_results["mts_opt"]
        assert r.n_states_max == len(set(workload.segment_templates))


class TestZorderVariant:
    def test_all_methods_run_with_zorder(self, pdf, workload):
        kw = dict(k=16, layout_kind="zorder", seed=0)
        s = run_static(pdf, ds.TPCH_LITE, workload, **kw)
        g = run_greedy(pdf, ds.TPCH_LITE, workload, alpha=ALPHA, **kw)
        o = run_oreo(pdf, ds.TPCH_LITE, workload, alpha=ALPHA, **kw)
        for r in (s, g, o):
            assert 0 < r.query_cost <= len(workload)


class TestSharedCandidateStream:
    """Greedy, Regret and OREO read one memoized candidate stream: whichever
    runs first fills it, and no order may change an output."""

    @pytest.mark.parametrize("dataset", sorted(SETUPS))
    def test_method_order_does_not_change_outputs(self, dataset, monkeypatch):
        inputs = {dataset: (
            ds.build_pdf(dataset, sf=0.005, seed=3),
            ds.SPECS[dataset],
            generate_workload(dataset, n_queries=600, n_segments=6, seed=5),
        )}
        for order in itertools.permutations(("greedy", "regret", "oreo")):
            monkeypatch.setattr(layout_manager, "_held", None)
            for method in order:
                got = outputs(inputs, dataset, method)
                assert got == GOLDENS[dataset, method], (order, method)
