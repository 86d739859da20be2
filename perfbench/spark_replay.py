"""The Spark replay workload (data plane), run in its own process.

Set-up builds tpch_lite, computes an OREO schedule on a drifting stream
(decision plane), resolves the scheduled layouts by feeding the same stream
to ``CandidateGenerator``, starts Spark and writes the table under
``default_layout`` as BID-partitioned Parquet, three times (set-up time is
the median write). The timed replay walks the schedule in a closed loop:
at every layout change it runs ``reorganize``, and on a fixed subsample of
the queries it runs ``run_query`` on the layout on disk. Correctness checks
run between the timed operations and are not timed:

- each executed query's pruned ``(count, sum)``, re-executed through
  ``relevant_bids`` and ``to_sql_where``, equals the ``Query.mask`` ground
  truth on the in-memory frame;
- after each write or reorganization, the rows of every ``BID=`` directory
  equal ``MaterializedLayout.rows``;
- the schedule's costs and moves equal the golden values, and re-costing
  the stream on the resolved layouts reproduces its query cost.

``--seed`` shuffles the row order of the frame loaded into Spark; no output
may depend on it.

    python3 perfbench/spark_replay.py --seed 0 --out .perfbench
"""
from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import pandas  # noqa: F401  third-party imports are not part of set-up time

from common import (
    ALPHA, DATA_SEED, K, N_QUERIES, STREAM_SEED, ReferenceClock, compare, layer_metrics, load_goldens,
    median, tail, vm_hwm_mb,
)
from tracer import Tracer

WORKLOAD = "tpch-spark-replay"
DATASET = "tpch_lite"
SCALE_FACTOR = 0.1
N_SEGMENTS = 6
OREO_SEED = 0
N_EXEC = 30  # queries executed on Spark, evenly spaced over the stream
N_WRITES = 3
N_FULLSCANS = 3
AGG_COL = "l_extendedprice"

SPARK_CONF = {
    "spark.master": "local[2]",
    "spark.driver.memory": "2g",
    "spark.sql.shuffle.partitions": "8",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.driver.host": "127.0.0.1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    # A fixed heap and the serial collector keep the JVM's peak memory
    # independent of GC timing.
    "spark.driver.extraJavaOptions": "-XX:+UseSerialGC -Xms2g",
}


class SparkClock(ReferenceClock):
    """A :class:`common.ReferenceClock` whose kernel is a fixed Spark job.

    The replay's work runs in Spark's JVM while the Python driver waits, so
    an interpreter kernel would time the wrong runtime, and samples taken
    during the work would compete with it for the host. The kernel here is
    a grouped sum over 3M generated rows (no program code), run once just
    before and once just after each piece of work.
    """

    INTERVAL_S = None
    ADJACENT = 1
    # About the job's time on a 4-vCPU Intel Xeon VM with local[2], so
    # reference times read close to wall times there.
    REF_S = 0.12

    def __init__(self, spark) -> None:
        super().__init__()
        self._rows = spark.range(0, 3_000_000, numPartitions=2).selectExpr(
            "id % 97 AS k", "CAST(id AS DOUBLE) * 1.5 AS v"
        )
        for _ in range(3):  # the JVM compiles the job's code on first runs
            self._kernel()
        self.kernel_s.clear()

    def _kernel(self) -> None:
        t = time.perf_counter()
        n = len(self._rows.groupBy("k").sum("v").collect())
        self.kernel_s.append(time.perf_counter() - t)
        if n != 97:
            raise RuntimeError(f"reference job returned {n} groups, not 97")


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*.parquet"))


def bid_rows_match(spark, path: Path, meta) -> bool:
    """Whether every ``BID=`` directory holds ``MaterializedLayout.rows`` rows."""
    got = {
        int(r["BID"]): int(r["count"])
        for r in spark.read.parquet(str(path)).groupBy("BID").count().collect()
    }
    want = {b: int(n) for b, n in enumerate(meta.rows) if n > 0}
    dirs = {int(p.name.split("=", 1)[1]) for p in path.glob("BID=*")}
    return got == want and dirs == set(want)


def check_query(df, table: Path, q, meta, pdf) -> tuple[str | None, dict]:
    """Re-execute ``q`` through public calls and compare with the ground truth.

    Returns a mismatch description (or None) and what the query read.
    """
    from pyspark.sql import functions as F

    bids = meta.relevant_bids(q)
    row = (
        df.where(F.col("BID").isin(bids))
        .where(F.expr(q.to_sql_where()))
        .agg(F.count(F.lit(1)).alias("cnt"), F.sum(AGG_COL).alias("s"))
        .collect()[0]
    )
    mask = q.mask(pdf)
    want_cnt = int(mask.sum())
    want_sum = float(pdf.loc[mask, AGG_COL].sum())
    got_sum = float(row["s"] or 0.0)
    bad = None
    if row["cnt"] != want_cnt or not math.isclose(got_sum, want_sum, rel_tol=1e-9, abs_tol=1e-6):
        bad = f"Spark ({row['cnt']}, {got_sum}) != ground truth ({want_cnt}, {want_sum})"
    files = [f for b in bids for f in (table / f"BID={b}").glob("*.parquet")]
    return bad, {
        "returned": want_cnt,
        "read_rows": int(meta.rows[bids].sum()),
        "mb": sum(f.stat().st_size for f in files) / 2**20,
        "files": len(files),
        "partitions": len(bids),
    }


def resolve_layouts(pdf, spec, wl, schedule, init):
    """Scheduled layout objects, by replaying the stream through a generator
    with the parameters ``run_oreo`` uses and matching candidate names."""
    from repro.core import layout_manager

    need = set(schedule.layout_per_query)
    found = {init.name: init}
    gen = layout_manager.CandidateGenerator(
        pdf, spec, k=K, layout_kind="qdtree", strategy="sw",
        window=200, regen_every=100, seed=OREO_SEED,
    )
    for q in wl.queries:
        if need <= found.keys():
            break
        for cand in gen.step(q):
            if cand.name in need:
                found[cand.name] = cand
    return found, sorted(need - found.keys())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True, help="directory for tables and traces")
    ap.add_argument("--trace", default="", help="write spans to this JSONL file")
    args = ap.parse_args()
    out = Path(args.out).resolve()
    failures: list[str] = []
    attempted = 0
    check_s = 0.0
    layers: dict = {}

    t0 = time.perf_counter()
    from repro.core import oreo
    from repro.workload import datasets, generator

    import_s = time.perf_counter() - t0
    pdf = datasets.build_pdf(DATASET, sf=SCALE_FACTOR, seed=DATA_SEED)
    spec = datasets.SPECS[DATASET]
    wl = generator.generate_workload(
        DATASET, n_queries=N_QUERIES, n_segments=N_SEGMENTS, seed=STREAM_SEED
    )

    # Decision plane: the schedule the replay follows.
    s = time.perf_counter()
    sched = oreo.run_oreo(pdf, spec, wl, alpha=ALPHA, k=K, seed=OREO_SEED)
    schedule_s = time.perf_counter() - s
    attempted += 1
    got = {"query_cost": sched.query_cost, "reorg_cost": sched.reorg_cost,
           "total_cost": sched.total_cost, "n_moves": int(sched.n_moves),
           "n_phases": int(sched.n_phases)}
    bad = compare(got, load_goldens(WORKLOAD)["oreo:0"])
    if bad:
        failures.append(f"schedule: {'; '.join(bad)}")

    tr = None
    if args.trace:
        # Traced copy of the schedule: decision-plane layers and trace overhead.
        tr = Tracer(f"{WORKLOAD}/seed{args.seed}")
        tr.install()
        with tr.span("run") as run_span:
            traced = oreo.run_oreo(pdf, spec, wl, alpha=ALPHA, k=K, seed=OREO_SEED)
        layers = layer_metrics(tr, run_span, [traced])
        layers["trace.overhead_pct"] = 100.0 * (layers["trace.run_s"] / schedule_s - 1.0)

    init = oreo.default_layout(pdf, spec, K)
    attempted += 1
    catalog, missing = resolve_layouts(pdf, spec, wl, sched, init)
    if missing:
        raise RuntimeError(f"scheduled layouts not resolved: {missing}")
    recost = sum(catalog[n].cost(q) for n, q in zip(sched.layout_per_query, wl.queries))
    if not math.isclose(recost, sched.query_cost, rel_tol=1e-9):
        failures.append(f"resolved layouts re-cost to {recost!r}, schedule paid {sched.query_cost!r}")

    # Data plane.
    from pyspark.sql import SparkSession
    from repro import sparkio

    builder = SparkSession.builder.appName("perfbench")
    conf = dict(SPARK_CONF)
    conf["spark.local.dir"] = str(out / "spark-local")
    conf["spark.sql.warehouse.dir"] = str(out / "warehouse")
    conf["spark.driver.extraJavaOptions"] += f" -Djava.io.tmpdir={out / 'tmp'}"
    for k, v in conf.items():
        builder = builder.config(k, v)
    s = time.perf_counter()
    spark = builder.getOrCreate()
    session_s = time.perf_counter() - s
    spark.sparkContext.setLogLevel("ERROR")
    gateway = getattr(spark.sparkContext, "_gateway", None)
    jvm = getattr(gateway, "proc", None)

    try:
        shuffled = pdf.sample(frac=1.0, random_state=args.seed).reset_index(drop=True)
        tables = [out / "table_a", out / "table_b"]
        for p in tables:
            shutil.rmtree(p, ignore_errors=True)
        path = tables[0]
        clock = SparkClock(spark)
        write_s, write_ref_s, stored = [], [], []
        for i in range(N_WRITES):
            attempted += 1
            _, wall, ref = clock.time(
                lambda: sparkio.write_layout(spark.createDataFrame(shuffled), init.layout, str(path))
            )
            write_s.append(wall)
            write_ref_s.append(ref)
            s = time.perf_counter()
            if not bid_rows_match(spark, path, init):
                failures.append(f"write {i}: BID row counts differ from MaterializedLayout.rows")
            check_s += time.perf_counter() - s
        stored.append(dir_bytes(path) / len(pdf))

        if tr is not None:
            tr.layer_self.clear()
        on_disk = init.name
        df = sparkio.read_layout_table(spark, str(path))
        exec_at = set(np.linspace(0, N_QUERIES - 1, N_EXEC).round().astype(int).tolist())
        query_s, reorg_s, reads = [], [], []
        run_ref_s = 0.0
        reorg_mb = 0.0
        for t, (q, target) in enumerate(zip(wl.queries, sched.layout_per_query)):
            if target != on_disk:
                attempted += 1
                dst = tables[1] if path == tables[0] else tables[0]

                def move():
                    sparkio.reorganize(spark, str(path), catalog[target].layout, str(dst))
                    return sparkio.read_layout_table(spark, str(dst))

                df, wall, ref = clock.time(move)
                reorg_s.append(wall)
                run_ref_s += ref
                path, on_disk = dst, target
                reorg_mb += dir_bytes(dst) / 2**20
                stored.append(dir_bytes(dst) / len(pdf))
                s = time.perf_counter()
                if not bid_rows_match(spark, dst, catalog[target]):
                    failures.append(f"reorganize at query {t}: BID row counts differ from MaterializedLayout.rows")
                check_s += time.perf_counter() - s
            if t in exec_at:
                attempted += 1
                meta = catalog[on_disk]
                _, wall, ref = clock.time(lambda: sparkio.run_query(df, q, meta, agg_col=AGG_COL))
                query_s.append(wall)
                run_ref_s += ref
                s = time.perf_counter()
                bad, read = check_query(df, path, q, meta, pdf)
                check_s += time.perf_counter() - s
                if bad:
                    failures.append(f"query {t}: {bad}")
                reads.append(read)

        fullscan_s = [sparkio.full_scan(df) for _ in range(N_FULLSCANS)]
        jvm_mb = vm_hwm_mb(jvm.pid) if jvm is not None else 0.0
    finally:
        spark.stop()
        if jvm is not None:  # the JVM exits when its stdin closes
            gateway.shutdown()
            jvm.stdin.close()
            jvm.wait(timeout=60)

    q_tail, q_pct, q_n = tail([x * 1e3 for x in query_s])
    result = {
        "attempted": attempted,
        "failures": failures,
        "setup_s": median(write_ref_s),
        "run_s": run_ref_s,
        "rss_mb": vm_hwm_mb() + jvm_mb,
        "oreo_total_cost": sched.total_cost,
        "text": {
            "query_ms_tail": f"p{q_pct:.0f} of n={q_n}",
            "reorgs": f"{len(reorg_s)} reorganizations for {sched.n_moves} scheduled moves",
            "spark": " ".join(f"{k}={v}" for k, v in SPARK_CONF.items()),
            "import_s": f"{import_s:.3f}",
            "schedule_s": f"{schedule_s:.3f}",
            "run wall s": f"{sum(query_s) + sum(reorg_s):.3f}",
            "setup wall s": f"{median(write_s):.3f}",
            "reference kernel ms": f"{1e3 * median(clock.kernel_s):.1f}",
        },
        "metrics": {
            "spark.query_ms_p50": median(query_s) * 1e3,
            "spark.query_ms_tail": q_tail,
            "spark.reorg_s_p50": median(reorg_s),
            "spark.stored_bytes_per_row": median(stored),
            "spark.scan_mb_per_query": float(np.mean([r["mb"] for r in reads])),
            "spark.session_s": session_s,
            "spark.write_s": median(write_s),
            "spark.query_s": sum(query_s),
            "spark.queries": len(query_s),
            "spark.partitions_read_per_query": float(np.mean([r["partitions"] for r in reads])),
            "spark.files_read_per_query": float(np.mean([r["files"] for r in reads])),
            "spark.rows_read_per_row_returned": (
                sum(r["read_rows"] for r in reads) / max(1, sum(r["returned"] for r in reads))
            ),
            "spark.reorg_s": sum(reorg_s),
            "spark.reorgs": len(reorg_s),
            "spark.reorg_mb_written": reorg_mb,
            "spark.fullscan_ms": median(fullscan_s) * 1e3,
            "spark.alpha_measured": median(reorg_s) / median(fullscan_s),
            "spark.jvm_peak_rss_mb": jvm_mb,
            "spark.check_s": check_s,
        },
    }
    if tr is not None:
        tr.uninstall()
        result["metrics"] = {**layers, **result["metrics"], "self_s.sparkio": tr.layer_self["sparkio"]}
        result["absent"] = tr.absent
        tr.dump(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
