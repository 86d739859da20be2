"""The LAYOUT MANAGER: on-the-fly layout generation + ε-admission (paper §V).

The online methods "utilize the same set of data layout candidates computed
periodically based on a sliding window of recent queries" (§VI-A3). Here
that set is one computed value, the *candidate stream*:

- :class:`CandidateGenerator` — the engine: every ``regen_every`` queries,
  builds a new candidate layout (Qd-tree or Z-order) from the current query
  sample (sliding window, reservoir, or both) on a small data sample, and
  materializes its partition metadata on the full dataset (the stats a real
  reorganization would produce in Parquet footers). A Z-order candidate is
  determined by its column tuple, so each distinct tuple is built once; a
  later candidate with the same tuple is the first one under its own name.
  The Z-order builds share one :class:`~repro.layouts.zorder.ColumnRanks`:
  each column is ranked on the sample and on the frame once, and a build
  interleaves those ranks into its cuts and its frame BIDs. Every
  candidate's metadata pass reads one
  :class:`~repro.layouts.metadata.ColumnStore` of the frame.
- :func:`candidate_stream` — runs a generator over a whole query stream and
  returns its :class:`CandidateStream`, the one catalog of layouts every
  online method reads: the name of the default layout (built and costed
  once per stream), each layout's cost column over the whole stream (a
  repeated Z-order candidate shares the first one's array), and the
  positions where candidates are born. The layouts themselves are dropped.
  It holds one memoized entry, so the first online method of a cell (OREO,
  Greedy or Regret with the same parameters) builds, materializes and costs
  the default layout and each candidate, and the others reuse them. An
  entry is reused only for the same frame object and the same ``Query``
  objects; frames are treated as immutable, as :class:`MaterializedLayout`
  already assumes.
- :class:`LayoutManager` — Algorithm 5: reads a catalog next to an R-TBS
  evaluation reservoir; a new candidate is *admitted* to the dynamic state
  space only if the normalized L1 distance between its query-cost vector
  and that of every existing state (both evaluated on the R-TBS sample) is
  at least ε. When the state space exceeds ``max_states``, the non-current
  state closest to the remainder of the space is pruned (a state-removal
  query to the reorganizer).

The reservoir holds stream positions, so a cost vector on the sample is an
index into a column.

Every workload-aware layout in the package is built by :func:`build_layout`
(a Qd-tree or Z-order layout fitted on a :func:`data_sample`, then
:func:`materialize`-d on the full dataset); the workload-oblivious start is
:func:`default_layout`.
"""
from __future__ import annotations

import operator
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import pandas as pd

from repro.core.rtbs import TimeBiasedReservoir
from repro.layouts.fixed import build_fixed
from repro.layouts.metadata import ColumnStore, MaterializedLayout, build_materialized
from repro.layouts.qdtree import build_qdtree
from repro.layouts.zorder import ColumnRanks, build_zorder, top_queried_columns
from repro.workload.datasets import DatasetSpec
from repro.workload.queries import CompiledQueries, Query

# Rows of the data sample layouts are built on (paper: 0.1%–1% of the data).
BUILD_SAMPLE_ROWS = 4_000
# Time bias of the layout manager's R-TBS evaluation sample.
EVAL_RTBS_LAM = 0.01


def data_sample(pdf: pd.DataFrame, seed: int) -> pd.DataFrame:
    """The data sample layouts are built on."""
    n = min(len(pdf), BUILD_SAMPLE_ROWS)
    return pdf.sample(n=n, random_state=seed).reset_index(drop=True)


def materialize(
    pdf: pd.DataFrame, spec: DatasetSpec, layout, store: ColumnStore | None = None
) -> MaterializedLayout:
    """Partition metadata of ``layout`` (anything with ``assign``) on ``pdf``,
    whose :class:`ColumnStore` is ``store`` when the caller holds one."""
    return build_materialized(
        pdf, layout.assign(pdf), name=layout.name,
        categorical_cols=spec.categorical_cols, layout=layout, store=store,
    )


def build_layout(
    pdf: pd.DataFrame, spec: DatasetSpec, sample: pd.DataFrame, queries: Sequence[Query],
    k: int, *, layout_kind: str, name: str, seed: int, store: ColumnStore | None = None,
) -> MaterializedLayout:
    """Build a ``layout_kind`` layout for ``queries`` on ``sample`` and
    materialize it on ``pdf`` (through ``store``, if given)."""
    if layout_kind == "qdtree":
        lay = build_qdtree(
            sample, queries, k, categorical_cols=spec.categorical_cols, name=name, seed=seed
        )
    elif layout_kind == "zorder":
        lay = build_zorder(sample, queries, k, categorical_cols=spec.categorical_cols, name=name)
    else:
        raise ValueError(f"unknown layout kind {layout_kind!r}")
    return materialize(pdf, spec, lay, store)


def default_layout(pdf: pd.DataFrame, spec: DatasetSpec, k: int) -> MaterializedLayout:
    """The workload-oblivious starting layout: range-partition by time/key."""
    return materialize(pdf, spec, build_fixed(pdf, spec.default_sort_col, k))


@dataclass(frozen=True)
class StateEvent:
    """A state-management query issued to the REORGANIZER."""

    kind: str  # "add" | "remove"
    name: str


def _check_generator_args(layout_kind: str, strategy: str, window: int, regen_every: int) -> None:
    """Reject :class:`CandidateGenerator` parameters it cannot run with."""
    if layout_kind not in ("qdtree", "zorder"):
        raise ValueError(f"unknown layout kind {layout_kind!r}")
    if strategy not in ("sw", "rs", "sw+rs"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if regen_every < 1:
        raise ValueError(f"regen_every must be >= 1, got {regen_every}")


class CandidateGenerator:
    """Periodic workload-aware layout candidates from recent queries."""

    def __init__(
        self,
        pdf: pd.DataFrame,
        spec: DatasetSpec,
        *,
        k: int,
        layout_kind: str = "qdtree",
        strategy: str = "sw",
        window: int = 200,
        regen_every: int = 100,
        seed: int = 0,
    ) -> None:
        _check_generator_args(layout_kind, strategy, window, regen_every)
        self.pdf = pdf
        self.spec = spec
        self.k = k
        self.layout_kind = layout_kind
        self.strategy = strategy
        self.window: deque[Query] = deque(maxlen=window)
        self.regen_every = regen_every
        # Candidate-generation reservoir (uniform, lam=0) for the RS
        # strategies; "sw" never reads it, so never feeds it. A build offers
        # it the queries seen since the last build in one batch.
        self._gen_reservoir = TimeBiasedReservoir(size=window, lam=0.0, seed=seed + 1)
        self._unoffered: list[Query] = []
        self.t = 0
        self._seed = seed
        self.sample = data_sample(pdf, seed)
        # The first Z-order candidate built on each column tuple, and for
        # every later candidate with that tuple, the first one's name.
        self._zorder_built: dict[tuple[str, ...], MaterializedLayout] = {}
        self.repeat_of: dict[str, str] = {}
        # Each column's rank bound and its sample and frame ranks, computed
        # by the first Z-order build that orders on the column.
        self._ranks = ColumnRanks(self.sample, spec.categorical_cols, pdf)
        # The frame's columns as every candidate's metadata pass reads them.
        self._store = ColumnStore(pdf, spec.categorical_cols)

    def _build(self, queries: list[Query], tag: str) -> MaterializedLayout:
        name = f"{self.layout_kind}:{tag}@{self.t}"
        if self.layout_kind == "qdtree":
            return build_layout(
                self.pdf, self.spec, self.sample, queries, self.k,
                layout_kind="qdtree", name=name, seed=self._seed, store=self._store,
            )
        # The window enters a Z-order build only through this tuple.
        cols = top_queried_columns(queries)
        first = self._zorder_built.get(cols)
        if first is not None:
            self.repeat_of[name] = first.name
            return replace(first, name=name, layout=replace(first.layout, name=name))
        lay = build_zorder(
            self.sample, queries, self.k,
            categorical_cols=self.spec.categorical_cols, name=name, ranks=self._ranks,
        )
        cand = self._zorder_built[cols] = build_materialized(
            self.pdf, self._ranks.frame_bids(lay), name=name,
            categorical_cols=self.spec.categorical_cols, layout=lay, store=self._store,
        )
        return cand

    def step(self, q: Query) -> list[MaterializedLayout]:
        """Observe one query; return newly generated candidates (often none)."""
        self.window.append(q)
        if self.strategy != "sw":
            self._unoffered.append(q)
        self.t += 1
        # Wait for at least half a window of history before generating.
        if self.t % self.regen_every != 0 or self.t < max(self.window.maxlen // 2, 1):
            return []
        out = []
        if self.strategy in ("sw", "sw+rs"):
            out.append(self._build(list(self.window), "sw"))
        if self.strategy in ("rs", "sw+rs"):
            self._gen_reservoir.extend(self._unoffered)
            self._unoffered.clear()
            out.append(self._build(self._gen_reservoir.sample(), "rs"))
        return out


class CandidateStream(NamedTuple):
    """The layouts a :class:`CandidateGenerator` offers over one query
    stream, as every online method reads them."""

    initial: str  # name of the default layout every method starts on
    # The default layout and every candidate -> its cost column over the
    # whole stream; a repeated Z-order candidate shares the first one's.
    columns: dict[str, np.ndarray]
    # Each position where candidates are born -> their names, ascending.
    births: dict[int, tuple[str, ...]]


class _Entry(NamedTuple):
    """A memoized candidate stream. It keeps strong references to the frame
    and the queries, so their ids cannot be recycled while it is held."""

    key: tuple
    pdf: pd.DataFrame
    queries: tuple[Query, ...]
    cands: CandidateStream


_held: _Entry | None = None


def candidate_stream(
    pdf: pd.DataFrame,
    spec: DatasetSpec,
    stream: CompiledQueries,
    *,
    k: int,
    layout_kind: str = "qdtree",
    strategy: str = "sw",
    window: int = 200,
    regen_every: int = 100,
    seed: int = 0,
) -> CandidateStream:
    """The default layout and the candidates a :class:`CandidateGenerator`
    with these parameters produces over the compiled query ``stream``, each
    with its cost column over the whole stream.

    The last result is memoized and reused when ``pdf`` is the same object,
    ``stream`` holds the same ``Query`` objects and the parameters are
    equal. The frame is treated as immutable: a changed frame must be a
    new object.
    """
    global _held
    _check_generator_args(layout_kind, strategy, window, regen_every)
    key = (spec, k, layout_kind, strategy, window, regen_every, seed)
    if (
        _held is not None and _held.pdf is pdf and _held.key == key
        and len(_held.queries) == len(stream)
        and all(map(operator.is_, _held.queries, stream.queries))
    ):
        return _held.cands
    _held = None  # drop the old entry first: peak memory stays that of one
    init = default_layout(pdf, spec, k)
    columns = {init.name: init.cost_vector(stream)}
    births: dict[int, tuple[str, ...]] = {}
    gen = CandidateGenerator(
        pdf, spec, k=k, layout_kind=layout_kind, strategy=strategy,
        window=window, regen_every=regen_every, seed=seed,
    )
    for t, q in enumerate(stream.queries):
        born = gen.step(q)
        for c in born:
            first = gen.repeat_of.get(c.name)
            columns[c.name] = columns[first] if first else c.cost_vector(stream)
        if born:
            births[t] = tuple(c.name for c in born)
    cands = CandidateStream(init.name, columns, births)
    _held = _Entry(key, pdf, stream.queries, cands)
    return cands


def check_admission_args(epsilon: float, max_states: int) -> None:
    """Reject :class:`LayoutManager` parameters it cannot run with."""
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("epsilon must be in [0, 1]")
    if max_states < 1:
        raise ValueError(f"max_states must be >= 1, got {max_states}")


class LayoutManager:
    """Algorithm 5: admit diverse candidates into the dynamic state space."""

    def __init__(
        self,
        cands: CandidateStream,
        *,
        epsilon: float = 0.08,
        eval_sample_size: int = 50,
        max_states: int = 10,
        seed: int = 0,
    ) -> None:
        check_admission_args(epsilon, max_states)
        self.epsilon = epsilon
        self.max_states = max_states
        self.cands = cands
        # Stream positions of a time-biased sample of the queries seen.
        self.eval_reservoir: TimeBiasedReservoir[int] = TimeBiasedReservoir(
            size=eval_sample_size, lam=EVAL_RTBS_LAM, seed=seed + 2
        )
        # The current dynamic state space (names in ``cands.columns``).
        self.space: list[str] = [cands.initial]
        self.n_admitted = 0

    @staticmethod
    def distance(ci: np.ndarray, cj: np.ndarray) -> float:
        """Normalized L1 distance between two query-cost vectors (§V-B)."""
        if len(ci) == 0:
            return 1.0
        return float(np.mean(np.abs(ci - cj)))

    @staticmethod
    def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """:meth:`distance` between the cost vectors along the last axes of
        ``a`` and ``b``, broadcast over the leading ones; bit for bit the
        scalar form, as each row's mean is the same pairwise sum."""
        if a.shape[-1] == 0:
            return np.ones(np.broadcast_shapes(a.shape, b.shape)[:-1])
        return np.abs(a - b).mean(axis=-1)

    def _sample_costs(self, sample: np.ndarray) -> np.ndarray:
        """(S × s) costs of the states in the space at the ``sample`` positions."""
        return np.stack([self.cands.columns[s][sample] for s in self.space])

    def step(self, t: int, current_state: str) -> list[StateEvent]:
        """Offer stream positions up to ``t`` to the evaluation reservoir,
        then judge the candidates born at ``t``; emit add/remove state
        events. Only a birth reads the reservoir, so a driver may call this
        at births alone."""
        self.eval_reservoir.extend(range(self.eval_reservoir.t, t + 1))
        events: list[StateEvent] = []
        for name in self.cands.births.get(t, ()):
            sample = np.asarray(self.eval_reservoir.sample(), dtype=np.intp)
            cand = self.cands.columns[name][sample]
            # The space is never empty: pruning stops at max_states >= 1.
            if self.distances(cand, self._sample_costs(sample)).min() >= self.epsilon:
                self.n_admitted += 1
                self.space.append(name)
                events.append(StateEvent("add", name))
                events.extend(self._prune(current_state, sample))
        return events

    def _prune(self, current_state: str, sample: np.ndarray) -> list[StateEvent]:
        """Remove the most redundant non-current state when over budget."""
        events: list[StateEvent] = []
        while len(self.space) > self.max_states:
            costs = self._sample_costs(sample)
            # Redundancy of a state = distance to its nearest neighbour in the space.
            dist = self.distances(costs[:, None], costs[None])
            np.fill_diagonal(dist, np.inf)
            nearest = dist.min(axis=1)
            _, victim = min((nearest[i], s) for i, s in enumerate(self.space) if s != current_state)
            self.space.remove(victim)
            events.append(StateEvent("remove", victim))
        return events
