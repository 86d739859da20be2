"""Table I: relative cost of reorganization over a full scan (α) vs file size.

Paper: Spark stand-alone, Parquet on local disk; full-table-scan seconds vs
reorganization seconds (read + update BID + repartition by BID + compress +
write) for file sizes 16MB–4GB; α ranged 60×–100×. We measure the same two
operations at container-feasible sizes (16/64/256MB by default; pass
``sizes_mb=(16, 64, 256, 1024, 4096)`` for the paper's range). Rows are
TPC-H-lite rows; the row count per target size is calibrated from a probe
write. Each size times three scans (mean ± sd) and three reorganizations
(median, with their min–max); α is the median reorganization over the mean
scan.
"""
from __future__ import annotations

import os
import pathlib
import statistics
import tempfile

from pyspark.sql import SparkSession

from repro.core.layout_manager import build_layout, data_sample
from repro.experiments.common import expect, markdown_table
from repro.layouts.fixed import build_fixed
from repro.sparkio.runner import full_scan, read_layout_table, reorganize, write_layout
from repro.workload import datasets as ds
from repro.workload.generator import generate_workload

MB = 1 << 20
N_SCAN_REPS = 3
N_REORG_REPS = 3


def _dir_size(path: str) -> int:
    return sum(f.stat().st_size for f in pathlib.Path(path).rglob("*") if f.is_file())


def _calibrate_bytes_per_row(spark: SparkSession, workdir: str) -> float:
    """Write a probe table and measure compressed Parquet bytes per row."""
    probe = ds.tpch_lite_pdf(sf=0.02, seed=0)
    sdf = spark.createDataFrame(probe)
    lay = build_fixed(probe, "l_shipdate", 4)
    path = os.path.join(workdir, "probe")
    write_layout(sdf, lay, path)
    return _dir_size(path) / len(probe)


def run(sizes_mb=(16, 64, 256), spark: SparkSession | None = None) -> list[dict]:
    """Measure (scan seconds, reorg seconds, α) per target file size, in a
    temporary directory removed on return. A session built here gets the test
    fixture's settings, under which the committed table was measured: Arrow
    on, driver memory from ``SPARK_DRIVER_MEM`` (4g when unset)."""
    spark = spark or (
        SparkSession.builder.appName("table1_alpha")
        .config("spark.driver.memory", os.environ.get("SPARK_DRIVER_MEM", "4g"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    with tempfile.TemporaryDirectory(prefix="table1_") as workdir:
        return _measure(spark, sizes_mb, workdir)


def _measure(spark: SparkSession, sizes_mb, workdir: str) -> list[dict]:
    bpr = _calibrate_bytes_per_row(spark, workdir)
    wl = generate_workload("tpch_lite", n_queries=200, n_segments=5, seed=3)

    rows_out = []
    for size_mb in sizes_mb:
        n_rows = max(1_000, int(size_mb * MB / bpr))
        sf = n_rows / 600_000
        pdf = ds.tpch_lite_pdf(sf=sf, seed=size_mb)
        sdf = spark.createDataFrame(pdf)
        # Partition count scaled so per-partition file size stays constant
        # (the paper holds partitions at 100-200MB and grows their number).
        k = max(4, min(64, size_mb // 8))
        src_lay = build_fixed(pdf, "l_shipdate", k)
        src = os.path.join(workdir, f"src_{size_mb}")
        write_layout(sdf, src_lay, src)
        actual_mb = _dir_size(src) / MB

        tbl = read_layout_table(spark, src)
        # Warm up page cache + codegen with an all-column pass (untimed),
        # then time the full-table-scan *query*: every partition is read,
        # aggregating the measure column — the query shape whose cost the
        # logical model normalizes to 1. Reorganization below must instead
        # move every column, which is exactly why α ≫ 1 in these systems.
        full_scan(tbl)
        scans = [full_scan(tbl, agg_col="l_extendedprice") for _ in range(N_SCAN_REPS)]
        # Reorganize into a workload-aware Qd-tree layout (a representative
        # reorganization: full read, BID rewrite, shuffle, compressed write).
        dst_lay = build_layout(
            pdf, ds.TPCH_LITE, data_sample(pdf, 0), wl.queries, k,
            layout_kind="qdtree", name="qd", seed=0,
        ).layout
        reorgs = [
            reorganize(spark, src, dst_lay, os.path.join(workdir, f"dst_{size_mb}_{i}"))
            for i in range(N_REORG_REPS)
        ]
        reorg_secs = statistics.median(reorgs)

        scan_mean = statistics.mean(scans)
        rows_out.append(
            {
                "size_mb": size_mb,
                "actual_mb": round(actual_mb, 1),
                "n_rows": n_rows,
                "scan_s": round(scan_mean, 3),
                "scan_sd": round(statistics.pstdev(scans), 3),
                "reorg_s": round(reorg_secs, 1),
                "reorg_min": round(min(reorgs), 1),
                "reorg_max": round(max(reorgs), 1),
                "alpha": round(reorg_secs / scan_mean, 1),
            }
        )
    return rows_out


def format_table(rows: list[dict]) -> str:
    header = ["file size (MB)", "actual MB", "rows", "query (s)", "reorg (s)", "alpha"]
    body = [
        [
            r["size_mb"], r["actual_mb"], r["n_rows"], f"{r['scan_s']}±{r['scan_sd']}",
            f"{r['reorg_s']} ({r['reorg_min']}–{r['reorg_max']})", r["alpha"],
        ]
        for r in rows
    ]
    return markdown_table(header, body)


def check(rows: list[dict]) -> None:
    """Sanity: reorganization must be far costlier than a scan at every size."""
    expect(all(r["alpha"] > 5 for r in rows), "α > 5 at every size")
