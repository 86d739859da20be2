"""Unit tests for the predicate/query model (repro.workload.queries)."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.layouts.metadata import build_materialized
from repro.workload.datasets import tpch_lite_pdf
from repro.workload.queries import InPredicate, Query, RangePredicate, compile_queries


@pytest.fixture(scope="module")
def pdf():
    return tpch_lite_pdf(sf=0.005, seed=7)


class TestRangePredicate:
    def test_requires_a_bound(self):
        with pytest.raises(ValueError):
            RangePredicate("x")

    def test_mask_both_bounds(self, pdf):
        p = RangePredicate("l_quantity", lo=10, hi=20)
        m = p.mask(pdf)
        v = pdf["l_quantity"].to_numpy()
        assert (m == ((v >= 10) & (v <= 20))).all()

    def test_mask_lo_only(self, pdf):
        p = RangePredicate("l_shipdate", lo=1000)
        assert (p.mask(pdf) == (pdf["l_shipdate"].to_numpy() >= 1000)).all()

    def test_mask_hi_only(self, pdf):
        p = RangePredicate("l_shipdate", hi=1000)
        assert (p.mask(pdf) == (pdf["l_shipdate"].to_numpy() <= 1000)).all()

    def test_sql_rendering(self):
        p = RangePredicate("a", lo=1, hi=2)
        assert p.to_sql() == "(a >= 1 AND a <= 2)"

    def test_hashable_and_frozen(self):
        p = RangePredicate("a", lo=1)
        assert hash(p) == hash(RangePredicate("a", lo=1))
        with pytest.raises(Exception):
            p.col = "b"


class TestInPredicate:
    def test_requires_values(self):
        with pytest.raises(ValueError):
            InPredicate("x", frozenset())

    def test_mask(self, pdf):
        p = InPredicate("c_mktsegment", frozenset({"BUILDING", "MACHINERY"}))
        m = p.mask(pdf)
        assert (m == pdf["c_mktsegment"].isin(["BUILDING", "MACHINERY"]).to_numpy()).all()

    def test_sql_sorted_values(self):
        p = InPredicate("c", frozenset({"b", "a"}))
        assert p.to_sql() == "(c IN ('a', 'b'))"

    def test_values_coerced_to_frozenset(self):
        p = InPredicate("c", {"x"})  # type: ignore[arg-type]
        assert isinstance(p.values, frozenset)


class TestQuery:
    def test_conjunction_mask(self, pdf):
        q = Query(
            predicates=(
                RangePredicate("l_quantity", hi=25),
                InPredicate("l_returnflag", frozenset({"R"})),
            )
        )
        m = q.mask(pdf)
        expect = (pdf["l_quantity"] <= 25) & (pdf["l_returnflag"] == "R")
        assert (m == expect.to_numpy()).all()

    def test_empty_conjunction_selects_all(self, pdf):
        q = Query(predicates=())
        assert q.mask(pdf).all()
        assert q.to_sql_where() == "TRUE"

    def test_selectivity_bounds(self, pdf):
        q = Query(predicates=(RangePredicate("l_discount", lo=0.02, hi=0.04),))
        s = q.selectivity(pdf)
        assert 0.0 < s < 1.0

    def test_selectivity_empty_frame(self):
        q = Query(predicates=(RangePredicate("x", lo=0),))
        assert q.selectivity(pd.DataFrame({"x": []})) == 0.0

    def test_columns(self):
        q = Query(
            predicates=(
                RangePredicate("a", lo=0),
                InPredicate("b", frozenset({"v"})),
            )
        )
        assert q.columns == ("a", "b")

    def test_sql_matches_mask_via_duckdb(self, pdf):
        """The SQL rendering and the pandas mask must agree row-for-row."""
        queries = [
            Query((RangePredicate("l_shipdate", lo=500, hi=900),)),
            Query((InPredicate("l_shipmode", frozenset({"AIR", "MAIL"})),)),
            Query(
                (
                    RangePredicate("o_totalprice", lo=100000.0),
                    InPredicate("c_mktsegment", frozenset({"BUILDING"})),
                )
            ),
        ]
        con = duckdb.connect()
        con.register("t", pdf)
        try:
            for q in queries:
                n_sql = con.execute(
                    f"SELECT count(*) FROM t WHERE {q.to_sql_where()}"
                ).fetchone()[0]
                assert n_sql == int(q.mask(pdf).sum())
        finally:
            con.close()

    def test_quoted_value_matches_mask_via_duckdb(self):
        """A value holding a single quote renders as a valid SQL literal."""
        pdf = pd.DataFrame({"name": ["o'brien", "obrien", "o''brien", "smith", "'"]})
        q = Query((InPredicate("name", frozenset({"o'brien", "smith", "'"})),))
        con = duckdb.connect()
        con.register("t", pdf)
        try:
            got = con.execute(f"SELECT name FROM t WHERE {q.to_sql_where()}").fetchdf()
        finally:
            con.close()
        assert sorted(got["name"]) == sorted(pdf["name"][q.mask(pdf)])
        assert len(got) == 3


@pytest.mark.parametrize(
    "a,b",
    [("abc", "bcd"), ("a", "ab"), ("ab", "cd")],
    ids=["overlapping", "nested", "disjoint"],
)
def test_repeated_in_predicates_compile_to_their_intersection(a, b):
    """``IN A AND IN B`` on one column compiles as ``IN A∩B``: the query's
    mask row is 1 exactly at the vocabulary values in both sets (all zero
    when they are disjoint), while the vocabulary keeps every value named,
    and it costs what ``IN A∩B`` costs. Another query's IN predicate on
    the column keeps its own values."""
    a, b = frozenset(a), frozenset(b)
    other = Query((InPredicate("s", frozenset("ae")),))
    twice = compile_queries([Query((InPredicate("s", a), RangePredicate("x", lo=0), InPredicate("s", b))), other])
    vocab, rows, mask = twice.ins["s"]
    assert vocab == tuple(sorted(a | b | frozenset("ae")))
    assert rows.tolist() == [0, 1]
    assert mask.tolist() == [[float(v in a & b) for v in vocab], [float(v in "ae") for v in vocab]]

    # Partition 0 holds a value of A outside B and one of B outside A.
    pdf = pd.DataFrame({"x": np.arange(6.0), "s": list("adbcee")})
    m = build_materialized(pdf, np.array([0, 0, 1, 2, 3, 3]), name="m", categorical_cols=("s",))
    cost = m.cost_vector(twice)
    if a & b:
        once = compile_queries([Query((InPredicate("s", a & b), RangePredicate("x", lo=0))), other])
        assert np.array_equal(once.ins["s"][1], rows)
        assert np.array_equal(cost, m.cost_vector(once))
    else:
        assert cost[0] == 0.0
    assert cost[1] == m.cost(other)
