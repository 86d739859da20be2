"""Spark integration tests: BID assignment, partition pruning, reorg jobs.

Every rewritten-query test goes through the DuckDB oracle
(``repro.oracle.assert_equivalent``): data skipping via the BID filter must
return byte-identical results to the plain SQL query — a wrong layout
routing or an unsound prune fails loudly here.
"""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.oreo import default_layout
from repro.layouts.fixed import build_fixed
from repro.layouts.metadata import build_materialized
from repro.layouts.qdtree import build_qdtree
from repro.layouts.zorder import build_zorder
from repro.oracle import assert_equivalent
from repro.sparkio.bid import with_bid
from repro.sparkio.runner import (
    full_scan,
    read_layout_table,
    reorganize,
    run_query,
    write_layout,
)
from repro.workload import datasets as ds
from repro.workload.generator import generate_workload
from repro.workload.queries import InPredicate, Query

SF = 0.005


@pytest.fixture(scope="module")
def pdf():
    return ds.tpch_lite_pdf(sf=SF, seed=61)


@pytest.fixture(scope="module")
def sdf(spark, pdf):
    return spark.createDataFrame(pdf)


@pytest.fixture(scope="module")
def workload():
    return generate_workload("tpch_lite", n_queries=120, n_segments=5, seed=67)


@pytest.fixture(scope="module")
def qd_layout(pdf, workload):
    return build_qdtree(
        pdf, workload.queries, 8, categorical_cols=ds.TPCH_LITE.categorical_cols
    )


@pytest.fixture(scope="module")
def table_path(tmp_path_factory, sdf, qd_layout):
    path = str(tmp_path_factory.mktemp("tbl") / "tpch_lite")
    write_layout(sdf, qd_layout, path)
    return path


class TestWithBid:
    def test_matches_local_assignment(self, spark, pdf, sdf, qd_layout):
        got = with_bid(sdf, qd_layout).select("l_orderkey", "l_partkey", "BID").toPandas()
        # Spark row order is nondeterministic: compare BID histograms and a
        # per-partition checksum instead of positional equality.
        expect_bids = qd_layout.assign(pdf)
        assert np.bincount(got["BID"], minlength=qd_layout.n_partitions).tolist() == \
            np.bincount(expect_bids, minlength=qd_layout.n_partitions).tolist()

    def test_replaces_existing_bid(self, spark, sdf, pdf):
        lay8 = build_fixed(pdf, "l_shipdate", 8)
        lay2 = build_fixed(pdf, "l_shipdate", 2)
        df = with_bid(with_bid(sdf, lay8), lay2)
        assert df.select(F.max("BID")).collect()[0][0] <= 1
        assert df.columns.count("BID") == 1


class TestWriteAndPrune:
    def test_partitioned_layout_on_disk(self, spark, table_path, qd_layout):
        import os

        dirs = [d for d in os.listdir(table_path) if d.startswith("BID=")]
        assert 1 < len(dirs) <= qd_layout.n_partitions

    def test_roundtrip_row_count(self, spark, table_path, pdf):
        assert read_layout_table(spark, table_path).count() == len(pdf)

    def test_bid_filter_prunes_input_files(self, spark, table_path):
        """Catalyst must prune BID directories, not just filter rows."""
        df = read_layout_table(spark, table_path)
        plan = (
            df.where(F.col("BID").isin([0]))
            ._jdf.queryExecution().executedPlan().toString()
        )
        assert "PartitionFilters" in plan and "BID" in plan


class TestQueryCorrectness:
    """Rewritten (BID-pruned) queries == plain SQL, per the DuckDB oracle."""

    def _check(self, spark, table_path, pdf, mat, q):
        df = read_layout_table(spark, table_path)
        bids = mat.relevant_bids(q)
        got = (
            df.where(F.col("BID").isin(bids))
            .where(F.expr(q.to_sql_where()))
            .agg(
                F.count(F.lit(1)).alias("cnt"),
                F.round(F.sum("l_extendedprice"), 2).alias("rev"),
            )
        )
        sql = (
            "SELECT count(*) AS cnt, round(sum(l_extendedprice), 2) AS rev "
            f"FROM t WHERE {q.to_sql_where()}"
        )
        assert_equivalent(got, sql, t=pdf)

    def test_pruned_queries_match_oracle(self, spark, table_path, pdf, qd_layout, workload):
        mat = build_materialized(
            pdf,
            qd_layout.assign(pdf),
            name="qd",
            categorical_cols=ds.TPCH_LITE.categorical_cols,
        )
        # A spread of workload queries, including ones that prune partitions.
        for q in workload.queries[::17]:
            self._check(spark, table_path, pdf, mat, q)

    @pytest.mark.parametrize(
        "second", [("MACHINERY", "HOUSEHOLD"), ("AUTOMOBILE", "FURNITURE")], ids=["overlapping", "disjoint"]
    )
    def test_two_in_predicates_on_one_column_match_oracle(self, spark, table_path, pdf, qd_layout, second):
        """Two IN lists on one column prune by their intersection; a disjoint
        pair reads no partition (an empty ``BID IN ()``) and no row."""
        mat = build_materialized(
            pdf,
            qd_layout.assign(pdf),
            name="qd",
            categorical_cols=ds.TPCH_LITE.categorical_cols,
        )
        first = InPredicate("c_mktsegment", frozenset({"BUILDING", "MACHINERY"}))
        q = Query((first, InPredicate("c_mktsegment", frozenset(second))))
        assert (mat.relevant_bids(q) == []) == first.values.isdisjoint(second)
        self._check(spark, table_path, pdf, mat, q)

    def test_pruning_actually_skips(self, spark, table_path, pdf, qd_layout, workload):
        mat = build_materialized(
            pdf,
            qd_layout.assign(pdf),
            name="qd",
            categorical_cols=ds.TPCH_LITE.categorical_cols,
        )
        n_bids = [len(mat.relevant_bids(q)) for q in workload.queries]
        assert min(n_bids) < mat.n_partitions  # some query skips something

    def test_run_query_returns_timing(self, spark, table_path, pdf, qd_layout, workload):
        mat = build_materialized(
            pdf,
            qd_layout.assign(pdf),
            name="qd",
            categorical_cols=ds.TPCH_LITE.categorical_cols,
        )
        df = read_layout_table(spark, table_path)
        secs, nparts = run_query(df, workload.queries[0], mat, agg_col="l_extendedprice")
        assert secs > 0 and 0 <= nparts <= mat.n_partitions


class TestReorganize:
    def test_reorg_preserves_data_and_changes_layout(
        self, spark, tmp_path, table_path, pdf, workload
    ):
        zo = build_zorder(
            pdf, workload.queries, 6, categorical_cols=ds.TPCH_LITE.categorical_cols
        )
        dst = str(tmp_path / "reorg")
        secs = reorganize(spark, table_path, zo, dst)
        assert secs > 0
        out = read_layout_table(spark, dst)
        assert out.count() == len(pdf)
        # The new table must answer queries identically (oracle check).
        q = workload.queries[3]
        got = out.where(F.expr(q.to_sql_where())).agg(
            F.count(F.lit(1)).alias("cnt")
        )
        assert_equivalent(got, f"SELECT count(*) AS cnt FROM t WHERE {q.to_sql_where()}", t=pdf)

    def test_full_scan_timing(self, spark, table_path):
        df = read_layout_table(spark, table_path)
        assert full_scan(df, agg_col="l_extendedprice") > 0
