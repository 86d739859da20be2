"""Opt-in per-layer tracer, installed from the benchmark's own files.

The tracer wraps public names of the program (functions wherever a module
binds them, methods on their classes) with span recorders. It never edits
the program: a hook whose target no longer exists is reported as an absent
layer, so the benchmark keeps working after refactors.

Each call opens a frame on one stack. On exit its duration is charged to its
hook (``total``), its duration minus its children's (``self``) to its layer,
and its duration to the parent's child time. Calls of hooks marked *hot*
(hundreds of thousands per run, e.g. ``MaterializedLayout.cost``) are not
recorded one by one: they are aggregated into the nearest non-hot ancestor
span as ``{name: [calls, total_s, self_s]}``. Non-hot spans are kept in
memory and written as JSONL by :meth:`Tracer.dump`.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, public name, layer, hot). ``Class.method`` names patch the class;
# plain names are patched in every loaded ``repro`` module that binds them.
HOOKS = (
    ("repro.workload.datasets", "build_pdf", "workload", False),
    ("repro.workload.generator", "generate_workload", "workload", False),
    ("repro.layouts.qdtree", "build_qdtree", "layouts.qdtree", False),
    ("repro.layouts.zorder", "build_zorder", "layouts.zorder", False),
    ("repro.layouts.metadata", "build_materialized", "layouts.metadata", False),
    ("repro.layouts.metadata", "MaterializedLayout.cost", "layouts.metadata", True),
    ("repro.layouts.metadata", "MaterializedLayout.cost_vector", "layouts.metadata", True),
    ("repro.layouts.qdtree", "QdTreeLayout.assign", "layouts.metadata", False),
    ("repro.layouts.zorder", "ZOrderLayout.assign", "layouts.metadata", False),
    ("repro.layouts.fixed", "FixedRangeLayout.assign", "layouts.metadata", False),
    ("repro.core.layout_manager", "CandidateGenerator.step", "core.layout_manager", True),
    ("repro.core.layout_manager", "LayoutManager.step", "core.layout_manager", True),
    ("repro.core.mts", "Reorganizer.observe", "core.mts", True),
    ("repro.core.mts", "Reorganizer.add_state", "core.mts", True),
    ("repro.core.mts", "Reorganizer.remove_state", "core.mts", True),
    ("repro.core.oreo", "run_oreo", "core.oreo", False),
    ("repro.core.oreo", "default_layout", "core.oreo", False),
    ("repro.baselines.runners", "run_static", "baselines.runners", False),
    ("repro.baselines.runners", "run_greedy", "baselines.runners", False),
    ("repro.baselines.runners", "run_regret", "baselines.runners", False),
    ("repro.sparkio.runner", "write_layout", "sparkio", False),
    ("repro.sparkio.runner", "run_query", "sparkio", False),
    ("repro.sparkio.runner", "reorganize", "sparkio", False),
    ("repro.sparkio.runner", "full_scan", "sparkio", False),
    ("repro.sparkio.runner", "read_layout_table", "sparkio", False),
)

LAYERS = tuple(dict.fromkeys(h[2] for h in HOOKS))
ROOT = "benchmark"


class _Frame:
    __slots__ = ("name", "child", "span", "regen")

    def __init__(self, name: str, span: dict) -> None:
        self.name = name
        self.child = 0.0  # seconds covered by child frames
        self.span = span  # nearest non-hot span record (self or ancestor)
        self.regen = False  # a LayoutManager.step that produced a candidate


class Tracer:
    """Span stack, per-hook totals and per-layer work counters."""

    def __init__(self, trace_id: str, layers=LAYERS) -> None:
        self.trace_id = trace_id
        self.hooks = [h for h in HOOKS if h[2] in layers]
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.regen_ms: list[float] = []
        self._build_keys: set = set()
        self._fingerprints: dict[int, tuple[object, int]] = {}
        self._undo: list[tuple[object, str, object]] = []
        root = self._new_span(ROOT, ROOT, None)
        self._stack = [_Frame(ROOT, root)]

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Patch every hook target; record the ones that no longer exist."""
        for module, name, layer, hot in self.hooks:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                self.absent.append(f"{module}.{name}")
                continue
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.absent.append(f"{module}.{name}")
                continue
            wrapper = self._wrap(orig, name, layer, hot)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            # A function: rebind it wherever a loaded repro module holds it.
            for m in [m for k, m in sys.modules.items() if k.startswith("repro")]:
                if getattr(m, attr, None) is orig:
                    self._patch(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- spans --------------------------------------------------------------

    def _new_span(self, name: str, layer: str, parent: dict | None) -> dict:
        span = {
            "trace": self.trace_id,
            "id": len(self.spans),
            "parent": None if parent is None else parent["id"],
            "name": name,
            "layer": layer,
            "start": time.perf_counter(),
            "end": None,
            "self": None,
            "agg": {},
        }
        self.spans.append(span)
        return span

    def _wrap(self, fn, name: str, layer: str, hot: bool):
        stack = self._stack
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = parent.span if hot else tracer._new_span(name, layer, parent.span)
            frame = _Frame(name, span)
            try:
                tracer._before(name, args, kwargs)
            except (TypeError, AttributeError, IndexError):
                tracer.counts["trace.counter_errors"] += 1  # an API changed shape
            stack.append(frame)
            t0 = perf()
            if not hot:
                span["start"] = t0
            try:
                out = fn(*args, **kwargs)
            finally:
                d = perf() - t0
                stack.pop()
                own = d - frame.child
                parent.child += d
                tracer.calls[name] += 1
                tracer.total[name] += d
                tracer.self_s[name] += own
                tracer.layer_self[layer] += own
                if hot:
                    agg = span["agg"].setdefault(name, [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += d
                    agg[2] += own
                else:
                    span["end"] = span["start"] + d
                    span["self"] = own
            try:
                tracer._after(name, parent, frame, args, out, d)
            except (TypeError, AttributeError, IndexError):
                tracer.counts["trace.counter_errors"] += 1  # an API changed shape
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span for a phase of the benchmark itself (its self time is
        benchmark code between calls into the program)."""
        parent = self._stack[-1]
        rec = self._new_span(name, ROOT, parent.span)
        frame = _Frame(name, rec)
        self._stack.append(frame)
        try:
            yield rec
        finally:
            d = time.perf_counter() - rec["start"]
            self._stack.pop()
            parent.child += d
            rec["end"] = rec["start"] + d
            rec["self"] = d - frame.child

    # -- layer counters -----------------------------------------------------

    def _before(self, name: str, args, kwargs) -> None:
        if name == "build_qdtree":
            # A duplicate repeats the sample, query window and parameters of
            # an earlier build in this process (the name is only a label).
            sample, queries = args[0], args[1]
            rest = tuple(args[2:]) + tuple(
                sorted((k, v) for k, v in kwargs.items() if k != "name")
            )
            key = (self._fingerprint(sample), hash(tuple(queries)), hash(rest))
            if key in self._build_keys:
                self.counts["qdtree.duplicate_builds"] += 1
            self._build_keys.add(key)

    def _fingerprint(self, frame) -> int:
        """Content hash of a sample frame, computed once per frame object."""
        hit = self._fingerprints.get(id(frame))
        if hit is None or hit[0] is not frame:
            import pandas as pd

            fp = int(pd.util.hash_pandas_object(frame, index=False).sum())
            hit = self._fingerprints[id(frame)] = (frame, fp)
        return hit[1]

    def _after(self, name, parent: _Frame, frame: _Frame, args, out, d: float) -> None:
        if name == "MaterializedLayout.cost":
            if parent.name != "MaterializedLayout.cost_vector":
                self.counts["metadata.cost_evals"] += 1
        elif name == "MaterializedLayout.cost_vector":
            self.counts["metadata.cost_evals"] += len(args[1])
        elif name == "CandidateGenerator.step":
            if parent.name == "LayoutManager.step" and out:
                self.counts["manager.candidates"] += len(out)
                parent.regen = True
        elif name == "LayoutManager.step":
            self.counts["manager.admitted"] += sum(
                1 for ev in out if getattr(ev, "kind", None) == "add"
            )
            if frame.regen:
                self.regen_ms.append(d * 1e3)

    # -- output -------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        root = self.spans[0]
        root["end"] = time.perf_counter()
        root["self"] = (root["end"] - root["start"]) - self._stack[0].child
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
