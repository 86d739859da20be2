"""Helpers shared by the benchmark's workers: statistics, memory, the
reference clock, goldens, and the per-layer metrics derived from a
:class:`tracer.Tracer`."""
from __future__ import annotations

import json
import math
import signal
import statistics
import time
from pathlib import Path

import numpy as np
import pandas as pd

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"

# Fixed inputs shared by every workload: the Figure-3 dataset (data seed 1)
# and query stream (generator seed 2), 3K queries long.
DATA_SEED = 1
STREAM_SEED = 2
N_QUERIES = 3000
K = 24
ALPHA = 80.0

# Where goldens compare floats: equal up to summation-order noise.
REL_TOL = 1e-9


def tail(values) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``. With fewer than eleven samples no
    such percentile exists and the maximum is returned as the 100th.
    """
    v = sorted(values)
    n = len(v)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 11:
        return v[-1], 100.0, n
    i = n - 11
    return v[i], 100.0 * (i + 1) / n, n


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class ReferenceClock:
    """Times program work on a shared host whose speed drifts.

    On a shared host the same pure-Python and pandas work runs at speeds up
    to a factor two apart from one second to the next. While the work runs,
    a timer signal every ``INTERVAL_S`` interrupts it to time a small fixed
    kernel (dict and string work in the interpreter; boolean masks, fancy
    indexing and ``isin`` on 20K rows: the mix the decision plane spends its
    time on); ``ADJACENT`` more samples are taken just before and just after
    the work, so that work shorter than the interval is covered too. A
    subclass may set ``INTERVAL_S = None`` to take only the adjacent samples.
    :meth:`time` returns the work's wall time (kernel samples taken inside it
    excluded) and its *reference time*: the wall time scaled by ``REF_S``
    over the kernel's mean sampled time, i.e. the time the work would take
    on a host where the kernel takes ``REF_S``. The kernel never calls the
    program, so the program's own speed-ups and slow-downs pass into the
    reference time unchanged.

    Signal handlers run between bytecodes of the main thread; use one clock
    per process, from the main thread only.
    """

    INTERVAL_S: float | None = 0.2
    ADJACENT = 5
    # About the kernel's time on a 4-vCPU Intel Xeon VM in a quiet phase, so
    # reference times read close to wall times there.
    REF_S = 0.0025

    def __init__(self) -> None:
        g = np.random.default_rng(0)
        self._x = g.random(40_000)
        self._c = g.integers(0, 50, 40_000)
        self._rows = g.permutation(40_000)[:20_000]
        self.kernel_s: list[float] = []
        self._inside = 0.0
        self._busy = False

    def _kernel(self) -> None:
        t = time.perf_counter()
        d: dict[int, int] = {}
        for i in range(2_500):
            k = (i * 2654435761) % 1009
            d[k] = d.get(k, 0) + len(str(k))
        hits = 0
        for j in range(3):
            sel = self._rows[self._x[self._rows] < (j + 1) / 4]
            hits += int(pd.Index(self._c[sel]).isin(range(j, j + 10)).sum())
        self.kernel_s.append(time.perf_counter() - t)
        if hits <= 0 or not d:  # uses the results; both are always non-empty
            raise RuntimeError("reference kernel computed nothing")

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a sample slower than the interval; do not nest
            return
        self._busy = True
        t = time.perf_counter()
        try:
            self._kernel()
        finally:
            self._inside += time.perf_counter() - t
            self._busy = False

    def time(self, fn):
        """Run ``fn()``; return ``(result, wall_s, reference_s)``."""
        first = len(self.kernel_s)
        for _ in range(self.ADJACENT):
            self._kernel()
        self._inside = 0.0
        if self.INTERVAL_S is None:
            t = time.perf_counter()
            out = fn()
            wall = time.perf_counter() - t
        else:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            t = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
            try:
                out = fn()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                wall = time.perf_counter() - t - self._inside
                signal.signal(signal.SIGALRM, previous)
        for _ in range(self.ADJACENT):
            self._kernel()
        speed = statistics.fmean(self.kernel_s[first:])
        return out, wall, wall * self.REF_S / speed


def load_goldens(workload: str) -> dict[str, dict]:
    """Golden outputs of each op of ``workload``, keyed by op name."""
    return json.loads(GOLDENS.read_text())[workload]


def compare(got: dict, want: dict) -> list[str]:
    """Mismatch descriptions between an op's outputs and its golden values.

    Moves and phases compare exactly, costs to ``REL_TOL``.
    """
    bad = []
    for key, w in want.items():
        g = got.get(key)
        if g is None:
            bad.append(f"{key}: missing")
        elif isinstance(w, int):
            if g != w:
                bad.append(f"{key}: {g} != {w}")
        elif not math.isclose(g, w, rel_tol=REL_TOL, abs_tol=1e-9):
            bad.append(f"{key}: {g!r} != {w!r}")
    return bad


def layer_metrics(tr, run_span: dict, oreo_results) -> dict[str, float]:
    """Per-layer metrics of one traced pass (decision-plane layers).

    ``run_span`` is the benchmark's span around the measured work; layer
    self times inside it sum to its duration minus its own self time.
    ``oreo_results`` are the ``OreoResult`` objects of the OREO runs.
    """
    from tracer import LAYERS

    calls, total, own, counts = tr.calls, tr.total, tr.self_s, tr.counts

    def per_call(name: str) -> float:
        return total[name] / calls[name] if calls[name] else 0.0

    run_s = run_span["end"] - run_span["start"]
    evals = counts["metadata.cost_evals"]
    cost_s = own["MaterializedLayout.cost"] + own["MaterializedLayout.cost_vector"]
    cands = counts["manager.candidates"]
    regen_tail = tail(tr.regen_ms)
    # The method runners are hooks too, so program code no other hook covers
    # is charged to their self time: driver_self_pct shows it.
    driver_s = tr.layer_self["core.oreo"] + tr.layer_self["baselines.runners"]
    m = {
        "workload.data_s": per_call("build_pdf"),
        "workload.generate_s": per_call("generate_workload"),
        "qdtree.build_s": total["build_qdtree"],
        "qdtree.builds": calls["build_qdtree"],
        "qdtree.duplicate_builds": counts["qdtree.duplicate_builds"],
        "zorder.build_s": total["build_zorder"],
        "zorder.builds": calls["build_zorder"],
        "layout.assign_s": sum(
            own[f"{c}.assign"]
            for c in ("QdTreeLayout", "ZOrderLayout", "FixedRangeLayout")
        ),
        "metadata.build_s": total["build_materialized"],
        "metadata.builds": calls["build_materialized"],
        "metadata.cost_s": cost_s,
        "metadata.cost_evals": evals,
        "metadata.cost_us_per_eval": cost_s / evals * 1e6 if evals else 0.0,
        "manager.step_self_s": tr.layer_self["core.layout_manager"],
        "manager.candidates": cands,
        "manager.admitted": counts["manager.admitted"],
        "manager.admit_ratio": counts["manager.admitted"] / cands if cands else 0.0,
        "manager.regen_ms_p50": median(tr.regen_ms),
        "manager.regen_ms_tail": regen_tail[0],
        "reorganizer.observe_s": total["Reorganizer.observe"],
        "reorganizer.observe_calls": calls["Reorganizer.observe"],
        "reorganizer.moves": sum(r.n_moves for r in oreo_results),
        "reorganizer.phases": sum(r.n_phases for r in oreo_results),
        "driver.self_s": driver_s,
        "method.oreo_s": total["run_oreo"],
        "method.greedy_s": total["run_greedy"],
        "method.regret_s": total["run_regret"],
        "method.static_s": total["run_static"],
        "trace.run_s": run_s,
        "trace.layer_sum_pct": 100.0 * (run_s - run_span["self"]) / run_s if run_s else 0.0,
        "trace.driver_self_pct": 100.0 * driver_s / run_s if run_s else 0.0,
        "trace.absent_hooks": len(tr.absent),
        "trace.counter_errors": counts["trace.counter_errors"],
    }
    for layer in LAYERS:
        m[f"self_s.{layer}"] = tr.layer_self[layer]
    return m
