"""OREO benchmark: one command runs one named workload with one seed.

    python3 perfbench/run.py --workload fig3-tpch-qdtree --seed 0 --seconds 30 --trace 0

Workloads (all closed loop, one client: each operation starts after the
previous one finished):

- ``fig3-tpch-qdtree``: one Figure-3 cell (Static, Greedy, Regret, OREO
  seed 0) on tpch_lite with Qd-tree candidates.
- ``oreo-telemetry-zorder``: OREO seeds 0-2 on telemetry with Z-order
  candidates (no Qd-tree is built).
- ``tpch-spark-replay``: a Spark replay of an OREO schedule (real
  ``run_query`` and ``reorganize`` on BID-partitioned Parquet).

A decision-plane workload runs passes, each in a fresh process, until
``--seconds`` have passed (at least three), and reports the mean run time
and the median set-up time and memory over passes. The Spark replay is one
process with a fixed amount of work. Set-up and run times are reference
times (``common.ReferenceClock``, ``spark_replay.SparkClock``): wall times
rescaled by a fixed kernel sampled around and during the work, so that the
shared host's changing speed cancels out.
With ``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics come from the traced ones; spans are written as JSONL under
``.perfbench/trace``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; every line
before it names a metric with its unit. Golden-output and Spark-result
mismatches count as failed operations.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from common import compare, load_goldens, median  # noqa: E402

DECISION = ("fig3-tpch-qdtree", "oreo-telemetry-zorder")
SPARK = "tpch-spark-replay"
# A run must end within 180 s; a worker still running at this point is killed.
DEADLINE_S = 170
STARTED = time.monotonic()
MIN_PASSES = 3  # untraced passes per run, however short --seconds is


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("PYSPARK_SUBMIT_ARGS", "SPARK_LOCAL_DIRS"):  # the replay configures Spark
        env.pop(var, None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=str(OUT / "tmp"),
    )
    return env


def run_child(argv: list[str]) -> dict:
    """Run one worker in its own session; return its last stdout line as JSON.

    The whole session is killed afterwards, so no process it started (the
    Spark JVM, Python workers) outlives it.
    """
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, STARTED + DEADLINE_S - time.monotonic()))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def check_ops(ops: list[dict], golden: dict[str, dict]) -> list[str]:
    """One failure description per failed operation of a decision pass."""
    bad = []
    for o in ops:
        if "error" in o:
            bad.append(f"{o['op']}: raised {o['error']}")
        elif diffs := compare(o, golden[o["op"]]):
            bad.append(f"{o['op']}: {'; '.join(diffs)}")
    return bad


def decision(args) -> tuple[int, list[str], dict, dict]:
    golden = load_goldens(args.workload)
    plain, traced, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        traced_pass = bool(args.trace) and len(plain) > len(traced)
        argv = [str(HERE / "decision.py"), "--workload", args.workload, "--seed", str(args.seed)]
        if traced_pass:
            argv += ["--trace", str(OUT / "trace" / f"{args.workload}-seed{args.seed}-pass{len(traced)}.jsonl")]
        t = time.perf_counter()
        res = run_child(argv)
        res["wall_s"] = time.perf_counter() - t
        attempted += len(res["ops"])
        failures += check_ops(res["ops"], golden)
        (traced if traced_pass else plain).append(res)
        enough = len(traced) >= 1 if args.trace else len(plain) >= MIN_PASSES
        elapsed = time.perf_counter() - start
        if enough and elapsed + median([r["wall_s"] for r in plain]) > args.seconds:
            break

    oreo_runs = [o for o in plain[0]["ops"] if o["op"].startswith("oreo") and "error" not in o]
    e2e = {
        "setup_s": median([r["setup_s"] for r in plain]),
        # With three to six passes the mean is steadier than the median.
        "run_s": statistics.fmean(r["run_s"] for r in plain),
        "peak_rss_mb": median([r["rss_mb"] for r in plain]),
        "oreo_total_cost": sum(o["total_cost"] for o in oreo_runs) / max(len(oreo_runs), 1),
    }
    layers: dict[str, float] = {}
    if traced:
        for name in traced[0]["layers"]:
            layers[name] = median([r["layers"][name] for r in traced])
        # Traced passes time the bare work, so compare wall times.
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.fmean(r["run_wall_s"] for r in traced)
            / statistics.fmean(r["run_wall_s"] for r in plain) - 1.0
        )
    text = {
        "passes": f"{len(plain)} untraced, {len(traced)} traced",
        "pass run_s": " ".join(f"{r['run_s']:.3f}" for r in plain),
        "pass run wall s": " ".join(f"{r['run_wall_s']:.3f}" for r in plain),
        "pass setup wall s": " ".join(f"{r['setup_wall_s']:.3f}" for r in plain),
        "pass reference kernel ms": " ".join(f"{r['kernel_ms']:.1f}" for r in plain),
    }
    if traced:
        text["absent layers"] = ", ".join(traced[0]["absent"]) or "none"
    return attempted, failures, {**e2e, **layers}, text


def spark(args) -> tuple[int, list[str], dict, dict]:
    argv = [str(HERE / "spark_replay.py"), "--seed", str(args.seed), "--out", str(OUT / "spark")]
    if args.trace:
        argv += ["--trace", str(OUT / "trace" / f"{SPARK}-seed{args.seed}.jsonl")]
    res = run_child(argv)
    values = {k: res[k] for k in ("setup_s", "run_s", "oreo_total_cost")}
    values["peak_rss_mb"] = res["rss_mb"]
    values.update(res["metrics"])
    text = dict(res["text"])
    if args.trace:
        text["absent layers"] = ", ".join(res["absent"]) or "none"
    return res["attempted"], res["failures"], values, text


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*DECISION, SPARK))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for d in ("tmp", "trace"):
        (OUT / d).mkdir(parents=True, exist_ok=True)

    runner = spark if args.workload == SPARK else decision
    attempted, failures, values, text = runner(args)

    for f in failures:
        print(f"[perfbench] FAILED {f}")
    failed = len(failures)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in section}
    if not args.trace:
        missing = [m["name"] for m in section if m["name"] not in values]
        if missing:
            raise KeyError(f"end-to-end metrics not measured: {missing}")
    for k, v in text.items():
        print(f"{k}: {v}")
    print(f"failed_ops_pct {100.0 * failed / max(attempted, 1):.4f} %")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, v in sorted(values.items()):
        print(f"{name} {v:.6g} {units.get(name, '')}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
