"""One pass of a decision-plane workload, run in a fresh process.

A fresh process per pass means nothing the program caches in memory can
carry from one pass into the next. The pass sets up its inputs (imports the
program, then builds the dataset and generates the query stream
``SETUP_REPEATS`` times, keeping the median), runs the
workload's methods in an order drawn from ``--seed`` (outputs must not
depend on it), and prints one JSON object with its timings and outputs.
Times are reported both as wall times and as reference times
(:class:`common.ReferenceClock`).

    python3 perfbench/decision.py --workload fig3-tpch-qdtree --seed 0
"""
from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy  # noqa: F401  third-party imports are not part of set-up time
import pandas  # noqa: F401

from common import (
    ALPHA, DATA_SEED, K, N_QUERIES, STREAM_SEED, ReferenceClock, layer_metrics, vm_hwm_mb,
)
from tracer import Tracer

SCALE_FACTOR = 0.02
N_SEGMENTS = 20
# One set-up takes about 0.1 s, too short for one sample to be steady on a
# shared host; the median of several is reported.
SETUP_REPEATS = 5

WORKLOADS = {
    "fig3-tpch-qdtree": {
        "dataset": "tpch_lite",
        "kind": "qdtree",
        "ops": ("static", "greedy", "regret", "oreo:0"),
    },
    "oreo-telemetry-zorder": {
        "dataset": "telemetry",
        "kind": "zorder",
        "ops": ("oreo:0", "oreo:1", "oreo:2"),
    },
}

DECISION_LAYERS = (
    "workload",
    "layouts.qdtree",
    "layouts.zorder",
    "layouts.metadata",
    "core.layout_manager",
    "core.mts",
    "core.oreo",
    "baselines.runners",
)


def bare_time(fn):
    """``ReferenceClock.time`` without the kernel: wall time twice."""
    t = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t
    return out, wall, wall


def run_op(op: str, pdf, spec, wl, kind: str):
    # Resolved through the modules at call time, so a traced pass sees the hooks.
    from repro.baselines import runners
    from repro.core import oreo

    kw = dict(k=K, layout_kind=kind)
    if op == "static":
        return runners.run_static(pdf, spec, wl, seed=0, **kw)
    if op == "greedy":
        return runners.run_greedy(pdf, spec, wl, alpha=ALPHA, seed=0, **kw)
    if op == "regret":
        return runners.run_regret(pdf, spec, wl, alpha=ALPHA, seed=0, **kw)
    seed = int(op.split(":")[1])
    return oreo.run_oreo(pdf, spec, wl, alpha=ALPHA, seed=seed, **kw)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", default="", help="write spans to this JSONL file")
    args = ap.parse_args()
    cfg = WORKLOADS[args.workload]

    # Untraced passes time each piece of program work with a ReferenceClock.
    # A traced pass times the bare work, so that layer self times add up to
    # it and no kernel sample lands inside a hooked call.
    clock = ReferenceClock()
    timed = bare_time if args.trace else clock.time

    def imports():
        import repro.baselines.runners  # noqa: F401
        import repro.core.oreo  # noqa: F401

    _, import_wall_s, import_s = timed(imports)
    from repro.workload import datasets, generator

    tr = None
    if args.trace:
        tr = Tracer(f"{args.workload}/seed{args.seed}/{Path(args.trace).stem}", DECISION_LAYERS)
        tr.install()

    def setup():
        pdf = datasets.build_pdf(cfg["dataset"], sf=SCALE_FACTOR, seed=DATA_SEED)
        wl = generator.generate_workload(
            cfg["dataset"], n_queries=N_QUERIES, n_segments=N_SEGMENTS, seed=STREAM_SEED
        )
        return pdf, wl

    setups, setups_wall = [], []
    for _ in range(SETUP_REPEATS):
        (pdf, wl), wall, ref = timed(setup)
        setups.append(ref)
        setups_wall.append(wall)
    spec = datasets.SPECS[cfg["dataset"]]

    ops = list(cfg["ops"])
    random.Random(args.seed).shuffle(ops)
    out_ops, oreo_results = [], []
    run_s = run_wall_s = 0.0

    def attempt(op):
        try:
            return run_op(op, pdf, spec, wl, cfg["kind"]), None
        except Exception:  # a failed op is counted, the pass goes on
            return None, traceback.format_exc(limit=3)

    if tr is not None:
        tr.layer_self.clear()  # layer self times cover the measured run only
    with tr.span("run") if tr is not None else nullcontext() as run_span:
        for op in ops:
            (r, err), wall, ref = timed(lambda: attempt(op))
            run_s += ref
            run_wall_s += wall
            if err is not None:
                out_ops.append({"op": op, "s": wall, "error": err})
                continue
            out_ops.append({
                "op": op,
                "s": wall,
                "query_cost": r.query_cost,
                "reorg_cost": r.reorg_cost,
                "total_cost": r.total_cost,
                "n_moves": int(r.n_moves),
                "n_phases": int(r.n_phases),
            })
            if op.startswith("oreo"):
                oreo_results.append(r)

    result = {
        "setup_s": import_s + statistics.median(setups),
        "setup_wall_s": import_wall_s + statistics.median(setups_wall),
        "run_s": run_s,
        "run_wall_s": run_wall_s,
        "kernel_ms": 1e3 * statistics.median(clock.kernel_s) if clock.kernel_s else 0.0,
        "rss_mb": vm_hwm_mb(),
        "ops": out_ops,
    }
    if tr is not None:
        tr.uninstall()
        result["layers"] = layer_metrics(tr, run_span, oreo_results)
        result["absent"] = tr.absent
        tr.dump(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
