"""Unit tests for partition metadata + metadata-only costing (soundness)."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.layouts.metadata import ColumnStore, build_materialized
from repro.workload import datasets as ds
from repro.workload.generator import generate_workload
from repro.workload.queries import InPredicate, Query, RangePredicate, compile_queries


@pytest.fixture(scope="module")
def pdf():
    return ds.tpch_lite_pdf(sf=0.005, seed=11)


@pytest.fixture(scope="module")
def mat(pdf):
    g = np.random.default_rng(0)
    bids = g.integers(0, 16, len(pdf))
    return build_materialized(
        pdf, bids, name="random16", categorical_cols=ds.TPCH_LITE.categorical_cols
    )


class TestBuildMaterialized:
    def test_row_counts(self, pdf, mat):
        assert mat.n_rows == len(pdf)
        assert mat.rows.sum() == len(pdf)
        assert mat.n_partitions == 16

    def test_minmax_correct(self, pdf, mat):
        g = np.random.default_rng(0)
        bids = g.integers(0, 16, len(pdf))
        for b in (0, 7, 15):
            sub = pdf[bids == b]
            assert mat.mins["l_shipdate"][b] == sub["l_shipdate"].min()
            assert mat.maxs["l_shipdate"][b] == sub["l_shipdate"].max()

    def test_distinct_correct(self, pdf, mat):
        g = np.random.default_rng(0)
        bids = g.integers(0, 16, len(pdf))
        values, presence = mat.distinct["c_mktsegment"]
        assert presence.shape == (16, len(values))
        for b in range(16):
            sub = pdf[bids == b]
            assert set(values[presence[b]]) == set(sub["c_mktsegment"]), b

    def test_empty_partition(self, pdf):
        bids = np.zeros(len(pdf), dtype=int)
        bids[0] = 2  # partition 1 stays empty
        m = build_materialized(
            pdf, bids, name="gap", categorical_cols=ds.TPCH_LITE.categorical_cols
        )
        assert m.rows[1] == 0
        q = Query((RangePredicate("l_shipdate", lo=0),))
        assert 1 not in m.relevant_bids(q)

    def test_length_mismatch_raises(self, pdf):
        with pytest.raises(ValueError):
            build_materialized(pdf, np.zeros(3), name="x", categorical_cols=())


class TestPruningSoundness:
    """Metadata pruning must never skip a partition holding matching rows."""

    def test_sound_on_workload(self, pdf, mat):
        g = np.random.default_rng(0)
        bids = g.integers(0, 16, len(pdf))
        w = generate_workload("tpch_lite", n_queries=120, n_segments=10, seed=13)
        for q in w.queries:
            matched_bids = set(np.unique(bids[q.mask(pdf)]))
            kept = set(mat.relevant_bids(q))
            assert matched_bids <= kept, f"pruned a matching partition for {q}"

    def test_prunes_something_for_selective_query(self, pdf):
        # Range-partition by shipdate: a narrow shipdate query must prune.
        qs = np.quantile(pdf["l_shipdate"], np.linspace(0, 1, 9)[1:-1])
        bids = np.searchsorted(qs, pdf["l_shipdate"].to_numpy())
        m = build_materialized(
            pdf, bids, name="ship8", categorical_cols=ds.TPCH_LITE.categorical_cols
        )
        lo = int(np.quantile(pdf["l_shipdate"], 0.4))
        q = Query((RangePredicate("l_shipdate", lo=lo, hi=lo + 30),))
        assert len(m.relevant_bids(q)) < m.n_partitions

    def test_unknown_column_is_never_pruned_on(self, pdf, mat):
        q = Query((RangePredicate("not_a_column", lo=0),))
        assert mat.cost(q) == 1.0

    def test_nan_does_not_hide_matching_rows(self):
        pdf = pd.DataFrame({"x": [1.0, np.nan, 5.0, np.nan]})
        m = build_materialized(pdf, np.array([0, 0, 1, 2]), name="nan", categorical_cols=())
        assert m.relevant_bids(Query((RangePredicate("x", lo=0, hi=2),))) == [0]
        # An all-NaN partition has an empty range: no range query reads it.
        assert (m.mins["x"][2], m.maxs["x"][2]) == (np.inf, -np.inf)
        assert m.relevant_bids(Query((RangePredicate("x", hi=10),))) == [0, 1]

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([np.nan, -1.0, 0.0, 1.5, 2.0, 3.0]),
                st.sampled_from(["a", "b", "o'b"]),
                st.integers(0, 5),
            ),
            max_size=30,
        ),
        bounds=st.lists(
            st.tuples(
                st.none() | st.sampled_from([-2.0, 0.0, 1.5, 2.5]),
                st.none() | st.sampled_from([-1.0, 0.0, 2.0, 4.0]),
            ).filter(lambda b: b != (None, None)),
            max_size=2,
        ),
        value_sets=st.lists(st.frozensets(st.sampled_from(["a", "b", "o'b", "z"]), min_size=1), max_size=2),
        order=st.randoms(use_true_random=False),
    )
    def test_pruned_partition_never_holds_a_match(self, rows, bounds, value_sets, order):
        """Random frames with NaN, duplicates and empty BIDs; up to two range
        and two IN predicates on one column each, in any order."""
        pdf = pd.DataFrame(
            {"x": np.array([r[0] for r in rows]), "s": np.array([r[1] for r in rows], dtype=object)}
        )
        bids = np.array([r[2] for r in rows], dtype=np.int64)
        preds = [RangePredicate("x", lo=lo, hi=hi) for lo, hi in bounds]
        preds += [InPredicate("s", values) for values in value_sets]
        order.shuffle(preds)
        q = Query(tuple(preds))
        m = build_materialized(pdf, bids, name="h", categorical_cols=("s",))
        keep = m.relevant_partitions(q)
        assert not q.mask(pdf)[~keep[bids]].any()


def reference_keep(m, q: Query, pdf, bids, categorical_cols) -> np.ndarray:
    """The per-predicate loop the batched kernel replaced: each range bound
    narrows on its own, and a column's IN predicates narrow by the
    intersection of their values. Each partition's distinct values are taken
    from the frame rows with its BID."""
    keep = np.ones(m.n_partitions, dtype=bool)
    admitted: dict[str, frozenset] = {}  # column -> values all its IN predicates name
    for p in q.predicates:
        if isinstance(p, RangePredicate):
            if p.col not in m.mins:
                continue
            if p.lo is not None:
                keep &= m.maxs[p.col] >= p.lo
            if p.hi is not None:
                keep &= m.mins[p.col] <= p.hi
        elif p.col in categorical_cols:
            admitted[p.col] = admitted.get(p.col, p.values) & p.values
    for col, values in admitted.items():
        sets = [set(pdf[col][bids == b]) for b in range(m.n_partitions)]
        keep &= np.array([not values.isdisjoint(s) for s in sets], dtype=bool)
    return keep


def reference_cost(m, q: Query, *frame) -> float:
    if m.n_rows == 0:
        return 0.0
    return float(m.rows[reference_keep(m, q, *frame)].sum() / m.n_rows)


BOUNDS = [-2.0, -1.0, 0.0, 1.5, 2.0, 2.5, 4.0]
# "y" is in the frame but has no stats; "w" is in neither.
range_preds = (
    st.tuples(
        st.sampled_from(["x", "x", "y", "w"]),
        st.none() | st.sampled_from(BOUNDS),
        st.none() | st.sampled_from(BOUNDS),
    )
    .filter(lambda t: t[1] is not None or t[2] is not None)
    .map(lambda t: RangePredicate(*t))
)
in_preds = st.builds(
    InPredicate,
    st.sampled_from(["s", "s", "t", "w"]),
    # "z" and "q" never occur in the data.
    st.frozensets(st.sampled_from(["a", "b", "o'b", "z", "q"]), min_size=1, max_size=3),
)
queries_st = st.lists(
    st.builds(Query, st.lists(range_preds | in_preds, max_size=4).map(tuple)),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from([np.nan, -1.0, 0.0, 1.5, 2.0, 3.0]),
            st.sampled_from([0.0, 1.0]),
            st.sampled_from(["a", "b", "o'b"]),
            st.sampled_from(["a", "c", None]),
            st.integers(0, 5),
            st.sampled_from([np.nan, 0.0, 1.0, 2.0]),
        ),
        max_size=30,
    ),
    queries=queries_st,
    every=st.none() | range_preds | in_preds,
    one=st.none() | st.tuples(
        st.integers(0, 7),
        st.builds(RangePredicate, st.just("v"), st.sampled_from([0.0, 1.0]), st.none() | st.sampled_from([0.5, 2.0])),
    ),
    categorical=st.booleans(),
)
# Partition 0 holds a value of each IN list but none of both, so only their
# intersection prunes it.
@example(
    rows=[(0.0, 0.0, "a", "a", 0, 0.0), (1.0, 0.0, "b", "c", 0, 0.0)],
    queries=[Query((InPredicate("s", frozenset("a")), InPredicate("s", frozenset("b"))))],
    every=None,
    one=None,
    categorical=False,
)
def test_cost_vector_equals_per_query_reference(rows, queries, every, one, categorical):
    """Batched costing equals the per-predicate loop exactly, on random frames
    with NaN, missing strings, duplicate rows and empty BIDs (and no rows at
    all), with string columns as object or ``Categorical`` dtype, for queries
    with repeated predicates on one column, absent IN values, columns without
    stats and no predicates; ``every`` is a predicate every query carries,
    and ``one`` one on column ``v`` that exactly one query carries."""
    if every is not None:
        queries = [Query(q.predicates + (every,)) for q in queries]
    if one is not None and queries:
        i = one[0] % len(queries)
        queries[i] = Query(queries[i].predicates + (one[1],))
    pdf = pd.DataFrame(
        {
            "x": np.array([r[0] for r in rows], dtype=np.float64),
            "y": np.array([r[1] for r in rows], dtype=np.float64),
            "s": np.array([r[2] for r in rows], dtype=object),
            "t": np.array([r[3] for r in rows], dtype=object),
            "v": np.array([r[5] for r in rows], dtype=np.float64),
        }
    )
    if categorical:
        pdf = pdf.astype({"s": "category", "t": "category"})
    bids = np.array([r[4] for r in rows], dtype=np.int64)
    m = build_materialized(pdf, bids, name="h", categorical_cols=("s", "t"), numeric_cols=("x", "v"))
    frame = (pdf, bids, ("s", "t"))
    stream = compile_queries(queries)
    want = np.array([reference_cost(m, q, *frame) for q in queries], dtype=float)
    assert np.array_equal(m.cost_vector(stream), want)
    keep = m._keep(stream)
    for i, q in enumerate(queries):
        assert np.array_equal(keep[i], reference_keep(m, q, *frame))
        assert m.relevant_bids(q) == np.flatnonzero(keep[i]).tolist()
        assert m.cost(q) == want[i]


class TestCostModel:
    def test_cost_bounds(self, pdf, mat):
        w = generate_workload("tpch_lite", n_queries=60, n_segments=6, seed=17)
        for q in w.queries:
            assert 0.0 <= mat.cost(q) <= 1.0

    def test_cost_is_fraction_of_kept_rows(self, pdf, mat):
        q = Query((InPredicate("l_returnflag", frozenset({"R"})),))
        keep = mat.relevant_partitions(q)
        assert mat.cost(q) == pytest.approx(mat.rows[keep].sum() / mat.n_rows)

    def test_full_match_costs_one(self, pdf, mat):
        q = Query((RangePredicate("l_quantity", lo=0, hi=1e9),))
        assert mat.cost(q) == 1.0

    def test_no_match_costs_zero(self, pdf, mat):
        q = Query((RangePredicate("l_quantity", lo=1e6),))
        assert mat.cost(q) == 0.0

    def test_cost_vector_matches_cost(self, mat):
        qs = [
            Query((RangePredicate("l_shipdate", lo=100, hi=200),)),
            Query((InPredicate("c_mktsegment", frozenset({"BUILDING"})),)),
        ]
        cv = mat.cost_vector(compile_queries(qs))
        assert cv.shape == (2,)
        assert cv[0] == mat.cost(qs[0]) and cv[1] == mat.cost(qs[1])

    def test_empty_layout_cost_zero(self):
        import pandas as pd

        empty = pd.DataFrame({"x": []})
        m = build_materialized(empty, np.array([], dtype=int), name="e", categorical_cols=())
        assert m.cost(Query((RangePredicate("x", lo=0),))) == 0.0


@st.composite
def _partitioned_frames(draw):
    """A frame with NaN, signed zeros and missing strings, string columns as
    object or ``Categorical`` dtype, and BIDs over 1, 256 or 257 partitions
    (the last crosses the 8-bit sort key), most of them empty."""
    n_parts = draw(st.sampled_from([1, 256, 257]))
    bid = st.sampled_from(sorted({b for b in (0, 1, 2, n_parts - 2, n_parts - 1) if 0 <= b < n_parts}))
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from([np.nan, -1.0, -0.0, 0.0, 2.5]),
                st.integers(-3, 3),
                st.sampled_from(["a", "b", "o'b", None]),
                st.sampled_from(["x", None]),
                bid,
            ),
            max_size=40,
        )
    )
    rows.append((np.nan, 0, None, None, n_parts - 1))  # pins the partition count
    pdf = pd.DataFrame(
        {
            "f": np.array([r[0] for r in rows], dtype=np.float64),
            "i": np.array([r[1] for r in rows], dtype=np.int64),
            "s": np.array([r[2] for r in rows], dtype=object),
            "t": np.array([r[3] for r in rows], dtype=object),
        }
    )
    if draw(st.booleans()):
        # Spark batches deliver strings as objects; the dataset builders as
        # ``Categorical``, possibly with a category no row holds.
        pdf["s"] = pd.Categorical(pdf["s"], categories=["z", "o'b", "b", "a"])
        pdf["t"] = pdf["t"].astype("category")
    return pdf, np.array([r[4] for r in rows], dtype=np.int64), n_parts


@settings(max_examples=150, deadline=None)
@given(frame=_partitioned_frames(), shared=st.booleans())
def test_build_materialized_equals_a_per_partition_reference(frame, shared):
    """Row counts, NaN-ignoring min/max (the empty range (inf, -inf) for an
    empty or all-NaN partition) and the set of present values of each
    partition equal pandas on that partition's rows, with a store built per
    call or shared. ``minimum`` may return either zero for -0.0 vs 0.0, so
    values compare with ``==``."""
    pdf, bids, n_parts = frame
    cats = ("s", "t")
    store = ColumnStore(pdf, cats) if shared else None
    m = build_materialized(pdf, bids, name="p", categorical_cols=cats, store=store)
    assert m.n_partitions == n_parts and m.n_rows == len(pdf)
    assert set(m.mins) == set(m.maxs) == {"f", "i"} and set(m.distinct) == set(cats)
    groups = dict(list(pdf.groupby(bids)))
    empty = np.array([p not in groups for p in range(n_parts)])
    assert not m.rows[empty].any()
    assert all((m.mins[c][empty] == np.inf).all() and (m.maxs[c][empty] == -np.inf).all() for c in ("f", "i"))
    assert not any(m.distinct[c][1][empty].any() for c in cats)
    for p, sub in groups.items():
        assert m.rows[p] == len(sub)
        for c in ("f", "i"):
            v = sub[c].dropna()
            assert m.mins[c][p] == (v.min() if len(v) else np.inf), (c, p)
            assert m.maxs[c][p] == (v.max() if len(v) else -np.inf), (c, p)
        for c in cats:
            values, presence = m.distinct[c]
            assert set(values[presence[p]]) == set(sub[c].dropna()), (c, p)


@pytest.mark.parametrize("shared", [False, True])
def test_negative_bids_raise(shared):
    pdf = pd.DataFrame({"x": [1.0, 2.0, 3.0], "s": ["a", "b", "a"]})
    store = ColumnStore(pdf, ("s",)) if shared else None
    with pytest.raises(ValueError):
        build_materialized(pdf, np.array([0, -1, 1]), name="neg", categorical_cols=("s",), store=store)


def test_one_stream_costs_layouts_of_different_categories():
    """The stream's vocabulary map is per categories object: costing one
    stream against layouts of frames with different categories, in turn,
    equals costing each against a fresh compile."""
    queries = [
        Query((InPredicate("s", frozenset({"a", "q"})),)),
        Query((InPredicate("s", frozenset({"c"})),)),
        Query((InPredicate("s", frozenset({"b", "c"})), InPredicate("s", frozenset({"c"})))),
    ]
    frames = [
        pd.DataFrame({"s": pd.Categorical(["a", "b", "a", "b"])}),
        pd.DataFrame({"s": pd.Categorical(["c", "b", "z", "c"], categories=["z", "c", "b"])}),
    ]
    bids = np.array([0, 1, 1, 2])
    shared = compile_queries(queries)
    for _ in range(2):
        for frame in frames:
            store = ColumnStore(frame, ("s",))
            for name in ("one", "two"):
                m = build_materialized(frame, bids, name=name, categorical_cols=("s",), store=store)
                want = m.cost_vector(compile_queries(queries))
                assert np.array_equal(m.cost_vector(shared), want)
