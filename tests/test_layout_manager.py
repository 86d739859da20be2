"""Unit tests for candidate generation and ε-admission (Algorithm 5)."""
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.runners import run_greedy, run_regret
from repro.core import layout_manager
from repro.core.layout_manager import (
    CandidateGenerator, LayoutManager, candidate_stream, default_layout, materialize,
)
from repro.core.oreo import run_oreo
from repro.core.rtbs import TimeBiasedReservoir
from repro.layouts.metadata import build_materialized
from repro.workload import datasets as ds
from repro.workload.generator import generate_workload
from repro.workload.queries import InPredicate, Query, RangePredicate, compile_queries


@pytest.fixture(scope="module")
def pdf():
    return ds.tpch_lite_pdf(sf=0.005, seed=31)


@pytest.fixture(scope="module")
def workload():
    return generate_workload("tpch_lite", n_queries=600, n_segments=6, seed=37)


@pytest.fixture(scope="module")
def stream(workload):
    return compile_queries(workload.queries)


def make_gen(pdf, **kw):
    args = dict(k=8, layout_kind="qdtree", strategy="sw", window=100, regen_every=50, seed=0)
    args.update(kw)
    return CandidateGenerator(pdf, ds.TPCH_LITE, **args)


class TestCandidateGenerator:
    def test_cadence(self, pdf, workload):
        gen = make_gen(pdf)
        made = [t for t, q in enumerate(workload.queries[:300]) if gen.step(q)]
        # Generation at t where (t+1) % 50 == 0 and t+1 >= window/2.
        assert made == [49, 99, 149, 199, 249, 299]

    def test_candidates_are_materialized_with_names(self, pdf, workload):
        gen = make_gen(pdf)
        cands = []
        for q in workload.queries[:200]:
            cands.extend(gen.step(q))
        assert cands
        for c in cands:
            assert c.n_rows == len(pdf)
            assert c.name.startswith("qdtree:sw@")
            assert c.layout is not None

    def test_strategy_rs_tags(self, pdf, workload):
        gen = make_gen(pdf, strategy="rs")
        cands = []
        for q in workload.queries[:100]:
            cands.extend(gen.step(q))
        assert cands and all(c.name.startswith("qdtree:rs@") for c in cands)

    def test_strategy_sw_rs_produces_both(self, pdf, workload):
        gen = make_gen(pdf, strategy="sw+rs")
        cands = []
        for q in workload.queries[:100]:
            cands.extend(gen.step(q))
        tags = {c.name.split("@")[0] for c in cands}
        assert tags == {"qdtree:sw", "qdtree:rs"}

    def test_zorder_kind(self, pdf, workload):
        gen = make_gen(pdf, layout_kind="zorder")
        cands = []
        for q in workload.queries[:100]:
            cands.extend(gen.step(q))
        assert cands and all(c.name.startswith("zorder:sw@") for c in cands)

    def test_rejects_bad_args(self, pdf):
        with pytest.raises(ValueError):
            make_gen(pdf, layout_kind="nope")
        with pytest.raises(ValueError):
            make_gen(pdf, strategy="nope")

    @pytest.mark.parametrize("arg", ["window", "regen_every"])
    def test_rejects_nonpositive_cadence(self, pdf, arg):
        with pytest.raises(ValueError, match=arg):
            make_gen(pdf, **{arg: 0})

    @pytest.mark.parametrize("strategy", ["sw", "rs", "sw+rs"])
    def test_reservoir_builds_see_every_query(self, pdf, workload, strategy):
        """An RS build gets the uniform reservoir of every query so far (its
        own RNG, seeded ``seed + 1``); "sw" never reads it, so never feeds it."""
        gen = make_gen(pdf, strategy=strategy, seed=3)
        built = []
        gen._build = lambda queries, tag: built.append((gen.t, tag, list(queries))) or ()
        ref = TimeBiasedReservoir(size=100, lam=0.0, seed=4)
        want = []
        for q in workload.queries[:300]:
            ref.add(q)
            gen.step(q)
            if gen.t % 50 == 0 and strategy != "sw":
                want.append((gen.t, ref.sample()))
        assert [(t, qs) for t, tag, qs in built if tag == "rs"] == want
        assert len(gen._gen_reservoir) == (0 if strategy == "sw" else 100)


def born_before(cands, t_end: int) -> list[str]:
    """Names of the candidates born at positions before ``t_end``, in order."""
    return [n for t, born in cands.births.items() if t < t_end for n in born]


class TestLayoutManager:
    def _manager(self, pdf, workload, **kw):
        args = dict(epsilon=0.08, eval_sample_size=30, max_states=5, seed=0)
        args.update(kw)
        cands = candidate_stream(
            pdf, ds.TPCH_LITE, workload.compiled, k=8, window=100, regen_every=50, seed=0
        )
        return LayoutManager(cands, **args), cands.initial

    def test_distance_metric(self):
        a, b = np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.5, 0.5])
        assert LayoutManager.distance(a, b) == pytest.approx(1.0 / 3)
        assert LayoutManager.distance(a, a) == 0.0
        assert LayoutManager.distance(np.array([]), np.array([])) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.sampled_from([0, 1, 7, 8, 9, 50, 129]),
        n_states=st.integers(1, 10),
        levels=st.sampled_from([3, 97, 0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_distances_equal_the_scalar_form(self, size, n_states, levels, seed):
        """The array form at a birth (one candidate against the space) and at
        a prune (the space against itself) equals :meth:`distance` bit for
        bit. The sizes cross numpy's pairwise-sum blocks (8 and 128); costs
        are drawn on a coarse grid (ties) or anywhere in [0, 1] (levels 0)."""
        rng = np.random.default_rng(seed)
        costs = rng.random((n_states + 1, size))
        if levels:
            costs = np.round(costs * levels) / levels
        cand, space = costs[0], costs[1:]
        at_birth = LayoutManager.distances(cand, space)
        assert at_birth.shape == (n_states,)
        assert at_birth.tolist() == [LayoutManager.distance(cand, v) for v in space]
        pairwise = LayoutManager.distances(space[:, None], space[None])
        assert pairwise.tolist() == [[LayoutManager.distance(a, b) for b in space] for a in space]

    def test_epsilon_one_admits_nothing(self, pdf, workload):
        man, init = self._manager(pdf, workload, epsilon=1.0)
        for t in range(300):
            man.step(t, init)
        assert man.space == [init]
        assert born_before(man.cands, 300) and man.n_admitted == 0

    def test_epsilon_zero_admits_everything(self, pdf, workload):
        man, init = self._manager(pdf, workload, epsilon=0.0, max_states=100)
        for t in range(300):
            man.step(t, init)
        assert man.n_admitted == len(born_before(man.cands, 300)) > 0
        assert man.space == [init, *born_before(man.cands, 300)]

    def test_admission_events_are_adds(self, pdf, workload):
        man, init = self._manager(pdf, workload, epsilon=0.0, max_states=100)
        evs = []
        for t in range(200):
            evs.extend(man.step(t, init))
        assert evs and all(e.kind == "add" for e in evs)
        assert [e.name for e in evs] == born_before(man.cands, 200)

    def test_max_states_prunes_but_spares_current(self, pdf, workload):
        man, init = self._manager(pdf, workload, epsilon=0.0, max_states=3)
        removed = []
        for t in range(400):
            for e in man.step(t, init):
                if e.kind == "remove":
                    removed.append(e.name)
        assert removed and len(man.space) <= 3
        assert init in man.space  # the current state is never pruned
        assert init not in removed

    def test_catalog_keeps_pruned_layouts(self, pdf, workload):
        man, init = self._manager(pdf, workload, epsilon=0.0, max_states=2)
        before = dict(man.cands.columns)
        removed = [e.name for t in range(400) for e in man.step(t, init) if e.kind == "remove"]
        # Pruning bounds the space; the catalog keeps every column (the
        # driver may still serve a pruned layout during the Δ delay).
        assert removed and len(man.space) <= 2
        assert man.cands.columns.keys() == before.keys()
        assert all(man.cands.columns[n] is before[n] for n in before)
        assert set(removed) <= man.cands.columns.keys()

    def test_higher_epsilon_admits_fewer(self, pdf, workload):
        admitted = {}
        for eps in (0.02, 0.3):
            man, init = self._manager(pdf, workload, epsilon=eps, max_states=100)
            for t in range(400):
                man.step(t, init)
            admitted[eps] = man.n_admitted
        assert admitted[0.3] <= admitted[0.02]

    def test_rejects_bad_epsilon(self, pdf, workload):
        with pytest.raises(ValueError):
            self._manager(pdf, workload, epsilon=1.5)

    def test_rejects_nonpositive_max_states(self, pdf, workload):
        with pytest.raises(ValueError, match="max_states"):
            self._manager(pdf, workload, max_states=0)


# Parameters of the stream the TestCandidateStream cases start from.
STREAM = dict(k=8, layout_kind="qdtree", strategy="sw", window=100, regen_every=50, seed=0)


def assert_same_catalog(a, b):
    assert (a.initial, a.births) == (b.initial, b.births)
    assert a.columns.keys() == b.columns.keys()
    for name, col in a.columns.items():
        np.testing.assert_array_equal(col, b.columns[name])


class TestCandidateStream:
    """The one memoized catalog shared by the online methods."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(layout_manager, "_held", None)

    def test_births_match_the_generator(self, pdf, workload, stream):
        cands = candidate_stream(pdf, ds.TPCH_LITE, stream, **STREAM)
        gen = make_gen(pdf)
        want = {t: tuple(c.name for c in gen.step(q)) for t, q in enumerate(workload.queries)}
        assert cands.births == {t: names for t, names in want.items() if names}
        assert list(cands.births) == sorted(cands.births)
        born = [n for names in cands.births.values() for n in names]
        assert len(born) > 1 and set(born) <= cands.columns.keys()
        assert len(cands.columns) == 1 + len(born)
        init = default_layout(pdf, ds.TPCH_LITE, STREAM["k"])
        assert cands.initial == init.name and cands.initial not in born
        np.testing.assert_array_equal(cands.columns[cands.initial], init.cost_vector(stream))
        for col in cands.columns.values():
            assert isinstance(col, np.ndarray) and col.shape == (len(stream),)

    def test_same_inputs_reuse_the_entry(self, pdf, stream):
        first = candidate_stream(pdf, ds.TPCH_LITE, stream, **STREAM)
        again = candidate_stream(pdf, ds.TPCH_LITE, compile_queries(list(stream.queries)), **STREAM)
        assert again is first

    @pytest.mark.parametrize("change", [
        "frame", "workload", "k", "layout_kind", "strategy", "window", "regen_every", "seed",
    ])
    def test_any_key_change_rebuilds(self, pdf, workload, stream, change):
        args = dict(STREAM)
        frame, queries = pdf, workload.queries
        if change == "frame":
            frame = pdf.copy()
            col = ds.TPCH_LITE.numeric_cols[0]
            frame[col] = frame[col].to_numpy()[::-1]
        elif change == "workload":
            queries = generate_workload("tpch_lite", n_queries=600, n_segments=6, seed=37).queries
            assert queries == workload.queries and queries[0] is not workload.queries[0]
        else:
            args[change] = {
                "k": 6, "layout_kind": "zorder", "strategy": "rs",
                "window": 60, "regen_every": 40, "seed": 1,
            }[change]
        base = candidate_stream(pdf, ds.TPCH_LITE, stream, **STREAM)
        changed = candidate_stream(frame, ds.TPCH_LITE, compile_queries(queries), **args)
        assert changed is not base
        layout_manager._held = None
        fresh = candidate_stream(frame, ds.TPCH_LITE, compile_queries(queries), **args)
        assert_same_catalog(changed, fresh)

    def test_a_miss_frees_the_held_entry_before_building(self, pdf, stream, monkeypatch):
        cands = candidate_stream(pdf, ds.TPCH_LITE, stream, **STREAM)
        old_cols = [weakref.ref(col) for col in cands.columns.values()]
        assert len(old_cols) > 1
        del cands
        alive_at_build = []
        orig = layout_manager.build_materialized

        def build(*args, **kwargs):
            alive_at_build.append(any(ref() is not None for ref in old_cols))
            return orig(*args, **kwargs)

        # Every layout of a stream, the default one first, is materialized
        # through this name.
        monkeypatch.setattr(layout_manager, "build_materialized", build)
        candidate_stream(pdf, ds.TPCH_LITE, stream, **{**STREAM, "seed": 1})
        assert len(alive_at_build) > 1 and not any(alive_at_build)

    def test_a_cell_builds_each_candidate_once(self, pdf, workload, stream, monkeypatch):
        built, fixed = [], []
        for fn, log in (("build_qdtree", built), ("build_fixed", fixed)):
            orig = getattr(layout_manager, fn)

            def counting(*args, _orig=orig, _log=log, **kwargs):
                _log.append(kwargs.get("name"))
                return _orig(*args, **kwargs)

            monkeypatch.setattr(layout_manager, fn, counting)
        kw = dict(k=8, window=100, regen_every=50, seed=0)
        results = [run(pdf, ds.TPCH_LITE, workload, alpha=20.0, **kw)
                   for run in (run_greedy, run_regret, run_oreo)]
        cands = candidate_stream(pdf, ds.TPCH_LITE, stream, **STREAM)
        assert built == [n for born in cands.births.values() for n in born]
        assert len(fixed) == 1  # one default layout for the three methods
        assert {r.n_candidates for r in results} == {len(built)}

    @pytest.mark.parametrize("bad", [
        {"max_states": 0}, {"regen_every": 0}, {"window": 0}, {"epsilon": 1.5},
    ])
    def test_bad_parameters_fail_before_the_memo(self, pdf, workload, stream, bad, monkeypatch):
        held = candidate_stream(pdf, ds.TPCH_LITE, stream, **STREAM)
        builds = []
        monkeypatch.setattr(layout_manager, "default_layout", lambda *a: builds.append(a))
        # Another seed: a stream built before the check would miss the memo.
        with pytest.raises(ValueError, match=next(iter(bad))):
            run_oreo(pdf, ds.TPCH_LITE, workload, **{**STREAM, "seed": 1, **bad})
        assert layout_manager._held.cands is held and not builds


def _segment(cols: tuple[str, str, str], lo: int, n: int = 100) -> list[Query]:
    """``n`` queries filtering on ``cols`` (two ranges, then an IN list),
    with bounds that move with ``lo``. Each column is filtered once per
    query, so the window's column tuple is ``cols`` sorted."""
    a, b, c = cols
    return [
        Query((
            RangePredicate(a, lo=lo + i, hi=lo + i + 300),
            RangePredicate(b, lo=i % 40, hi=i % 40 + 10),
            InPredicate(c, frozenset({("BUILDING", "MACHINERY", "Brand#11")[i % 3]})),
        ))
        for i in range(n)
    ]


class TestZOrderRepeats:
    """A Z-order candidate is determined by its column tuple: each distinct
    tuple is built, materialized and costed once."""

    A = ("l_shipdate", "l_quantity", "c_mktsegment")
    B = ("o_orderdate", "l_discount", "p_brand")
    # Window = cadence = segment length, so each candidate's window is one
    # segment: the tuples run A, B, A, A, B over five windows of different
    # queries.
    ARGS = dict(k=8, layout_kind="zorder", strategy="sw", window=100, regen_every=100, seed=0)

    @pytest.fixture
    def queries(self):
        return (
            _segment(self.A, 100) + _segment(self.B, 200) + _segment(self.A, 900)
            + _segment(self.A, 1500) + _segment(self.B, 1200)
        )

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"build_zorder": [], "build_materialized": []}
        for fn in calls:
            orig = getattr(layout_manager, fn)

            def counting(*args, _orig=orig, _log=calls[fn], **kwargs):
                _log.append(kwargs["name"])
                return _orig(*args, **kwargs)

            monkeypatch.setattr(layout_manager, fn, counting)
        monkeypatch.setattr(layout_manager, "_held", None)
        return calls

    def test_each_tuple_is_built_once(self, pdf, queries, calls):
        gen = CandidateGenerator(pdf, ds.TPCH_LITE, **self.ARGS)
        cands = [c for q in queries for c in gen.step(q)]
        names = [f"zorder:sw@{t}" for t in (100, 200, 300, 400, 500)]
        assert [c.name for c in cands] == names
        assert [c.layout.name for c in cands] == names
        a, b = sorted(self.A), sorted(self.B)
        assert [list(c.layout.cols) for c in cands] == [a, b, a, a, b]
        assert calls == {"build_zorder": names[:2], "build_materialized": names[:2]}
        assert gen.repeat_of == {names[2]: names[0], names[3]: names[0], names[4]: names[1]}
        # A repeat is the layout a build on its own window gives.
        for c in cands[2:]:
            fresh = materialize(pdf, ds.TPCH_LITE, c.layout)
            np.testing.assert_array_equal(fresh.rows, c.rows)
            assert fresh.name == c.name

    def test_candidate_stream_costs_each_tuple_once(self, pdf, queries, calls):
        stream = compile_queries(queries)
        cands = candidate_stream(pdf, ds.TPCH_LITE, stream, **self.ARGS)
        cols = cands.columns
        names = [f"zorder:sw@{t}" for t in (100, 200, 300, 400, 500)]
        assert cands.births == {t - 1: (n,) for t, n in zip((100, 200, 300, 400, 500), names)}
        assert list(cols) == [cands.initial, *names]
        assert cols["zorder:sw@300"] is cols["zorder:sw@100"]
        assert cols["zorder:sw@400"] is cols["zorder:sw@100"]
        assert cols["zorder:sw@500"] is cols["zorder:sw@200"]
        assert cols["zorder:sw@100"] is not cols["zorder:sw@200"]
        assert calls["build_materialized"] == [cands.initial, *names[:2]]
        # Each shared column is the cost of the repeat's own layout.
        gen = CandidateGenerator(pdf, ds.TPCH_LITE, **self.ARGS)
        for c in (c for q in queries for c in gen.step(q)):
            np.testing.assert_array_equal(cols[c.name], c.cost_vector(stream))


def _telemetry_frame(odd: bool):
    """A telemetry frame; ``odd`` adds NaN to numeric columns (the integer
    ones as float), ``None`` to the string columns (as object strings), and
    60 collectors that occur once, so the build sample lacks some."""
    frame = ds.build_pdf("telemetry", sf=0.01, seed=3)
    if not odd:
        return frame
    cats = ds.TELEMETRY.categorical_cols
    frame = frame.astype({c: object for c in cats} | {c: np.float64 for c in ds.TELEMETRY.numeric_cols})
    for i, c in enumerate(ds.TELEMETRY.numeric_cols):
        frame.loc[i::7, c] = np.nan
    for i, c in enumerate(cats):
        frame.loc[i::11, c] = None
    frame.loc[:59, "collector"] = [f"once{i}" for i in range(60)]
    return frame


def _same_metadata(a, b) -> bool:
    return (
        (a.name, a.n_partitions, a.n_rows) == (b.name, b.n_partitions, b.n_rows)
        and np.array_equal(a.rows, b.rows)
        and a.mins.keys() == b.mins.keys() == a.maxs.keys() == b.maxs.keys()
        and all(np.array_equal(a.mins[c], b.mins[c]) and np.array_equal(a.maxs[c], b.maxs[c]) for c in a.mins)
        and a.distinct.keys() == b.distinct.keys()
        and all(
            a.distinct[c][0].equals(b.distinct[c][0]) and np.array_equal(a.distinct[c][1], b.distinct[c][1])
            for c in a.distinct
        )
    )


@pytest.mark.parametrize("odd", [False, True])
def test_zorder_candidates_equal_a_build_through_assign(odd, monkeypatch):
    """A generator ranks each column once and reuses the ranks across
    builds; every Z-order candidate it builds has the BIDs and metadata that
    ``layout.assign`` on the frame gives."""
    frame = _telemetry_frame(odd)
    bids = {}

    def recording(pdf, b, **kw):
        bids[kw["name"]] = b
        return build_materialized(pdf, b, **kw)

    monkeypatch.setattr(layout_manager, "build_materialized", recording)
    gen = CandidateGenerator(
        frame, ds.TELEMETRY, k=24, layout_kind="zorder", strategy="sw+rs", window=200, regen_every=100, seed=0
    )
    queries = generate_workload("telemetry", n_queries=2000, n_segments=10, seed=5).queries
    built = [c for q in queries for c in gen.step(q) if c.name not in gen.repeat_of]
    assert len(bids) == len(built) >= 10
    assert any("collector" in c.layout.cols for c in built)
    if odd:
        assert set(frame["collector"].dropna()) - set(gen.sample["collector"].dropna())
    for c in built:
        want = c.layout.assign(frame)
        np.testing.assert_array_equal(bids[c.name], want)
        fresh = build_materialized(
            frame, want, name=c.name, categorical_cols=ds.TELEMETRY.categorical_cols, layout=c.layout
        )
        assert _same_metadata(c, fresh), c.name
