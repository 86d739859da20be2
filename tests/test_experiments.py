"""Smoke tests for every experiment harness at reduced scale.

These verify the harnesses run end-to-end, produce well-formed rows, render
tables and reject rows that break the paper's shape. The full-scale tables
are regenerated by ``python -m repro.experiments``.
"""
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

import repro
import repro.experiments.common as common
from repro.experiments import __main__ as cli
from repro.experiments import (
    figure3_endtoend,
    figure4_gap,
    figure5_alpha_sweep,
    figure6_eps_sweep,
    table1_alpha,
    table2_ablation,
)


@pytest.fixture(autouse=True)
def single_seed(monkeypatch):
    monkeypatch.setattr(common, "MTS_SEEDS", (0,))


class TestTable2:
    def test_runs_and_formats(self):
        res = table2_ablation.run(n_queries=900)
        assert set(res) == {v for v, _ in table2_ablation.VARIANTS}
        for per_ds in res.values():
            assert set(per_ds) == set(common.DATASETS)
            for v in per_ds.values():
                assert v["query_cost"] > 0 and v["reorg_cost"] >= 0
        text = table2_ablation.format_table(res)
        assert "γ=0" in text and "SW+RS" in text

    def test_delta_never_changes_reorg_cost(self):
        """§VI-D5: the reorg cost is charged at decision time, so Δ cannot
        change it. (Query cost rises with Δ only in expectation at full
        scale — a delayed *bad* random jump can accidentally help — so no
        directional query-cost assert at smoke scale.)"""
        res = table2_ablation.run(n_queries=900)
        base = res["default (γ=1, SW, Δ=0)"]
        for d in common.DATASETS:
            assert res["Δ=80"][d]["reorg_cost"] == pytest.approx(base[d]["reorg_cost"])
            assert res["Δ=80"][d]["query_cost"] > 0


class TestFigure3:
    def test_rows_cover_grid(self):
        rows = figure3_endtoend.run(
            n_queries=900, datasets=("tpch_lite",), layout_kinds=("qdtree",)
        )
        methods = {r["method"] for r in rows}
        assert methods == set(figure3_endtoend.METHODS)
        static = next(r for r in rows if r["method"] == "static")
        assert static["reorg_cost"] == 0.0

    def test_improvement_and_seconds_helpers(self):
        rows = figure3_endtoend.run(
            n_queries=900, datasets=("tpch_lite",), layout_kinds=("qdtree",)
        )
        imps = figure3_endtoend.improvement_vs_static(rows)
        assert len(imps) == 1
        text = figure3_endtoend.format_table(rows)
        assert "static" in text
        assert text.endswith(f"OREO vs static [tpch_lite/qdtree]: {imps[0]['improvement_pct']:+.1f}%")


class TestFigure4:
    def test_gaps_positive_vs_offline(self):
        rows = figure4_gap.run(n_queries=1200, datasets=("tpch_lite",))
        gaps = figure4_gap.gaps(rows)
        assert len(gaps) == 1
        assert gaps[0]["vs_offline_optimal_pct"] > 0
        assert gaps[0]["moves_offline"] <= common.N_SEGMENTS - 1
        text = figure4_gap.format_table(rows)
        assert "offline_optimal" in text
        assert text.splitlines()[-1].startswith("tpch_lite: query cost ")


class TestFigure5:
    def test_moves_decrease_with_alpha(self):
        rows = figure5_alpha_sweep.run(alphas=(10, 300), n_queries=1500)
        assert rows[0]["n_moves"] >= rows[-1]["n_moves"]
        assert "alpha" in figure5_alpha_sweep.format_table(rows)


class TestFigure6:
    def test_state_space_shrinks_with_eps(self):
        rows = figure6_eps_sweep.run(epsilons=(0.0, 0.4), n_queries=1500)
        assert rows[0]["n_states_max"] >= rows[-1]["n_states_max"]
        assert "epsilon" in figure6_eps_sweep.format_table(rows)


class TestTable1:
    def test_one_size_and_no_files_left(self, spark, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        rows = table1_alpha.run(sizes_mb=(1,), spark=spark)
        assert len(rows) == 1 and rows[0]["alpha"] > 0
        assert list(tmp_path.iterdir()) == []


def _fig3(oreo_total):
    return [
        {"dataset": "tpch_lite", "layout": "qdtree", "method": m, "total_cost": c}
        for m, c in (("static", 100.0), ("oreo", oreo_total))
    ]


def _fig4(offline_query):
    return [
        {"dataset": "tpch_lite", "method": m, "query_cost": q, "n_moves": 19.0}
        for m, q in (("oreo", 120.0), ("mts_optimal", 110.0), ("offline_optimal", offline_query))
    ]


def _table2(late_query, late_reorg):
    return {
        table2_ablation.DEFAULT: {"tpch_lite": {"query_cost": 100.0, "reorg_cost": 50.0}},
        "Δ=80": {"tpch_lite": {"query_cost": late_query, "reorg_cost": late_reorg}},
    }


@pytest.mark.parametrize(
    "module, good, bad",
    [
        pytest.param(figure3_endtoend, _fig3(90.0), _fig3(110.0), id="fig3-oreo-beats-static"),
        pytest.param(figure4_gap, _fig4(100.0), _fig4(130.0), id="fig4-offline-lowest"),
        pytest.param(
            figure5_alpha_sweep, [{"n_moves": 41.0}, {"n_moves": 9.3}],
            [{"n_moves": 9.3}, {"n_moves": 41.0}], id="fig5-moves-fall",
        ),
        pytest.param(
            figure6_eps_sweep, [{"n_states_max": 10.0}, {"n_states_max": 4.0}],
            [{"n_states_max": 4.0}, {"n_states_max": 10.0}], id="fig6-states-do-not-grow",
        ),
        pytest.param(
            table1_alpha, [{"alpha": 12.8}, {"alpha": 40.4}],
            [{"alpha": 12.8}, {"alpha": 3.0}], id="table1-alpha-above-5",
        ),
        pytest.param(table2_ablation, _table2(117.0, 50.0), _table2(117.0, 60.0), id="table2-delta-keeps-reorg"),
        pytest.param(table2_ablation, _table2(117.0, 50.0), _table2(95.0, 50.0), id="table2-delta-query-change"),
    ],
)
def test_check_rejects_rows_that_break_the_shape(module, good, bad):
    module.check(good)
    with pytest.raises(ValueError, match="shape check failed"):
        module.check(bad)


class TestCli:
    def test_unknown_table_exits_nonzero_and_writes_nothing(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(repro.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "nosuch"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert "figure3_endtoend" in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_writes_a_table_only_when_its_check_passes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "results" / "figure5_alpha_sweep.md"
        out.parent.mkdir()
        out.write_text("committed\n")
        rows = [
            {"alpha": a, "query_cost": 1.0, "reorg_cost": 0.0, "total_cost": 1.0, "n_moves": m}
            for a, m in ((10, 9.0), (300, 41.0))
        ]
        monkeypatch.setattr(figure5_alpha_sweep, "run", lambda: rows)
        assert cli.main(["figure5_alpha_sweep"]) == 1
        assert out.read_text() == "committed\n"

        rows[0]["n_moves"], rows[1]["n_moves"] = 41.0, 9.0
        assert cli.main(["figure5_alpha_sweep"]) == 0
        assert out.read_text() == figure5_alpha_sweep.format_table(rows) + "\n"
