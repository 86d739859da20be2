"""Golden logical outputs for method paths the benchmark does not pin.

Each case runs one method on a small fixed stream (600 queries, 6 template
segments) and compares query cost, reorg cost, moves and phases with values
recorded before the batched costing core replaced per-query ``cost()``
calls. A refactor of the decision plane must reproduce them exactly.
"""
import pytest

from repro.baselines.runners import (
    run_greedy, run_mts_optimal, run_offline_optimal, run_regret, run_static,
)
from repro.core.oreo import run_oreo
from repro.workload import datasets as ds
from repro.workload.generator import generate_workload

K = 16
ALPHA = 20.0
SETUPS = {"tpch_lite": "qdtree", "telemetry": "zorder"}

# Candidate cadence of the online methods: a new candidate every 50 queries.
ONLINE = {"alpha": ALPHA, "window": 100, "regen_every": 50}

# Method name -> (runner, keyword arguments beyond k, layout_kind and seed).
METHODS = {
    "mts_optimal": (run_mts_optimal, {"alpha": ALPHA}),
    "offline_optimal": (run_offline_optimal, {"alpha": ALPHA}),
    "static": (run_static, {}),
    "greedy": (run_greedy, ONLINE),
    "regret": (run_regret, ONLINE),
    "oreo": (run_oreo, ONLINE),
    "oreo_median": (run_oreo, {**ONLINE, "admit_mode": "median"}),
    "oreo_defer": (run_oreo, {**ONLINE, "admit_mode": "defer"}),
    "oreo_rs": (run_oreo, {**ONLINE, "strategy": "rs"}),
    "oreo_sw_rs": (run_oreo, {**ONLINE, "strategy": "sw+rs"}),
    "oreo_delta": (run_oreo, {**ONLINE, "delta": 40, "seed": 1}),
}

# (dataset, method) -> (query_cost, reorg_cost, n_moves, n_phases).
GOLDENS = {
    ('tpch_lite', 'mts_optimal'): (287.31333333333333, 160.0, 8, 11),
    ('tpch_lite', 'offline_optimal'): (189.462, 100.0, 5, 0),
    ('tpch_lite', 'static'): (221.50533333333334, 0.0, 0, 0),
    ('tpch_lite', 'greedy'): (258.50666666666666, 140.0, 7, 0),
    ('tpch_lite', 'regret'): (223.99066666666664, 0.0, 0, 0),
    ('tpch_lite', 'oreo'): (265.5276666666666, 80.0, 4, 11),
    ('tpch_lite', 'oreo_median'): (245.97133333333332, 40.0, 2, 12),
    ('tpch_lite', 'oreo_defer'): (223.99066666666664, 0.0, 0, 12),
    ('tpch_lite', 'oreo_rs'): (250.58433333333332, 40.0, 2, 12),
    ('tpch_lite', 'oreo_sw_rs'): (265.5276666666666, 80.0, 4, 11),
    ('tpch_lite', 'oreo_delta'): (250.63833333333332, 40.0, 2, 12),
    ('telemetry', 'mts_optimal'): (104.13466666666667, 40.0, 2, 5),
    ('telemetry', 'offline_optimal'): (66.31166666666667, 100.0, 5, 0),
    ('telemetry', 'static'): (344.8063333333333, 0.0, 0, 0),
    ('telemetry', 'greedy'): (247.96766666666667, 100.0, 5, 0),
    ('telemetry', 'regret'): (265.69166666666666, 80.0, 4, 0),
    ('telemetry', 'oreo'): (206.65033333333332, 80.0, 4, 8),
    ('telemetry', 'oreo_median'): (179.38866666666667, 80.0, 4, 8),
    ('telemetry', 'oreo_defer'): (214.32266666666666, 60.0, 3, 9),
    ('telemetry', 'oreo_rs'): (192.99399999999997, 60.0, 3, 8),
    ('telemetry', 'oreo_sw_rs'): (206.65033333333332, 80.0, 4, 8),
    ('telemetry', 'oreo_delta'): (300.1496666666667, 100.0, 5, 8),
}


@pytest.fixture(scope="module")
def inputs():
    return {
        name: (
            ds.build_pdf(name, sf=0.005, seed=3),
            ds.SPECS[name],
            generate_workload(name, n_queries=600, n_segments=6, seed=5),
        )
        for name in SETUPS
    }


def outputs(inputs, dataset: str, method: str) -> tuple:
    pdf, spec, wl = inputs[dataset]
    run, extra = METHODS[method]
    r = run(pdf, spec, wl, **{"k": K, "layout_kind": SETUPS[dataset], "seed": 0, **extra})
    return (r.query_cost, r.reorg_cost, int(r.n_moves), int(r.n_phases))


@pytest.mark.parametrize("case", sorted(GOLDENS), ids=lambda c: f"{c[0]}-{c[1]}")
def test_logical_outputs_match_golden(inputs, case):
    assert outputs(inputs, *case) == GOLDENS[case]
