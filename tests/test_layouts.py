"""Unit tests for the layout generators: fixed, Qd-tree, Z-order."""
import functools
import hashlib

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.layouts.fixed import build_fixed
from repro.layouts.metadata import build_materialized
from repro.layouts.qdtree import CatCut, NumCut, build_qdtree, harvest_cuts
from repro.layouts.zorder import (
    BITS, ZOrderLayout, _interleave, build_zorder, sorted_quantiles, top_queried_columns,
)
from repro.workload import datasets as ds
from repro.workload.generator import generate_workload
from repro.workload.queries import InPredicate, Query, RangePredicate, compile_queries


@pytest.fixture(scope="module")
def pdf():
    return ds.tpch_lite_pdf(sf=0.005, seed=23)


@pytest.fixture(scope="module")
def workload():
    return generate_workload("tpch_lite", n_queries=200, n_segments=8, seed=29)


def _mat(pdf, layout):
    return build_materialized(
        pdf,
        layout.assign(pdf),
        name=layout.name,
        categorical_cols=ds.TPCH_LITE.categorical_cols,
        layout=layout,
    )


def _skipped(mat, queries) -> float:
    """Mean fraction of the data ``mat`` lets ``queries`` skip."""
    return float(np.mean(1.0 - mat.cost_vector(compile_queries(queries))))


class TestFixedRange:
    def test_partition_count_and_cover(self, pdf):
        lay = build_fixed(pdf, "l_shipdate", 8)
        bids = lay.assign(pdf)
        assert bids.min() >= 0 and bids.max() < lay.n_partitions
        assert len(bids) == len(pdf)

    def test_partitions_roughly_balanced(self, pdf):
        lay = build_fixed(pdf, "l_shipdate", 8)
        counts = np.bincount(lay.assign(pdf), minlength=8)
        assert counts.max() < 2.5 * max(1, counts.min())

    def test_partitions_are_ranges(self, pdf):
        lay = build_fixed(pdf, "l_shipdate", 8)
        m = _mat(pdf, lay)
        # Non-empty partitions must have non-overlapping shipdate ranges.
        his = m.maxs["l_shipdate"]
        los = m.mins["l_shipdate"]
        for b in range(m.n_partitions - 1):
            assert his[b] <= los[b + 1]

    def test_rejects_bad_k(self, pdf):
        with pytest.raises(ValueError):
            build_fixed(pdf, "l_shipdate", 0)

    def test_assign_pure_function(self, pdf):
        lay = build_fixed(pdf, "l_shipdate", 8)
        half = pdf.iloc[: len(pdf) // 2]
        np.testing.assert_array_equal(lay.assign(half), lay.assign(pdf)[: len(half)])

    def test_nan_does_not_poison_cuts(self):
        """One NaN in the sort column leaves the cuts of the other values;
        the NaN row lands in the top partition."""
        v = np.r_[np.arange(1000.0), np.nan]
        lay = build_fixed(pd.DataFrame({"x": v}), "x", 8)
        want = build_fixed(pd.DataFrame({"x": v[:-1]}), "x", 8)
        assert lay.cuts == want.cuts and len(lay.cuts) == 7
        bids = lay.assign(pd.DataFrame({"x": v}))
        assert np.bincount(bids).tolist() == [125] * 7 + [126]
        assert bids[-1] == 7


class TestHarvestCuts:
    def test_harvest_types(self, workload):
        cuts = harvest_cuts(workload.queries, max_cuts=64)
        assert cuts and len(cuts) <= 64
        assert any(isinstance(c, NumCut) for c in cuts)
        assert any(isinstance(c, CatCut) for c in cuts)

    def test_dedup(self):
        q = Query((RangePredicate("a", lo=1, hi=2),))
        cuts = harvest_cuts([q, q, q])
        assert len(cuts) == 2  # lo cut + hi cut, deduplicated

    def test_deterministic_subsample(self, workload):
        a = harvest_cuts(workload.queries, max_cuts=16, seed=1)
        b = harvest_cuts(workload.queries, max_cuts=16, seed=1)
        assert a == b


class TestQdTree:
    def test_assign_partitions_all_rows(self, pdf, workload):
        lay = build_qdtree(
            pdf, workload.queries, 16, categorical_cols=ds.TPCH_LITE.categorical_cols
        )
        bids = lay.assign(pdf)
        assert len(bids) == len(pdf)
        assert bids.min() >= 0 and bids.max() < lay.n_partitions
        assert 1 < lay.n_partitions <= 16

    def test_deterministic(self, pdf, workload):
        a = build_qdtree(pdf, workload.queries, 12, categorical_cols=ds.TPCH_LITE.categorical_cols)
        b = build_qdtree(pdf, workload.queries, 12, categorical_cols=ds.TPCH_LITE.categorical_cols)
        np.testing.assert_array_equal(a.assign(pdf), b.assign(pdf))

    def test_beats_default_layout_on_its_workload(self, pdf, workload):
        """The whole point: a workload-aware tree skips more than time order."""
        qd = build_qdtree(
            pdf, workload.queries, 16, categorical_cols=ds.TPCH_LITE.categorical_cols
        )
        fx = build_fixed(pdf, "l_orderkey", 16)  # sort by an unqueried key
        m_qd, m_fx = _mat(pdf, qd), _mat(pdf, fx)
        qs = workload.queries
        assert _skipped(m_qd, qs) > _skipped(m_fx, qs) + 0.05

    def test_specializes_to_single_template(self, pdf):
        """A tree built for one template family skips most data for it."""
        g = np.random.default_rng(0)
        from repro.workload.templates import TPCH_TEMPLATES

        t6 = next(t for t in TPCH_TEMPLATES if t.name.startswith("q6"))
        qs = [t6.instantiate(g) for _ in range(50)]
        lay = build_qdtree(pdf, qs, 16, categorical_cols=ds.TPCH_LITE.categorical_cols)
        assert _skipped(_mat(pdf, lay), qs) > 0.5

    def test_min_leaf_size_respected(self, pdf, workload):
        k = 8
        lay = build_qdtree(
            pdf,
            workload.queries,
            k,
            categorical_cols=ds.TPCH_LITE.categorical_cols,
            min_leaf_frac=0.25,
        )
        counts = np.bincount(lay.assign(pdf), minlength=lay.n_partitions)
        # Build-time bound holds on the build sample (== pdf here).
        assert counts[counts > 0].min() >= int(0.25 * len(pdf) / k)

    def test_routing_is_pure(self, pdf, workload):
        lay = build_qdtree(pdf, workload.queries, 8, categorical_cols=ds.TPCH_LITE.categorical_cols)
        sub = pdf.sample(n=100, random_state=0)
        full = lay.assign(pdf)
        np.testing.assert_array_equal(lay.assign(sub), full[sub.index.to_numpy()])

    def test_k1_is_single_partition(self, pdf, workload):
        lay = build_qdtree(pdf, workload.queries, 1, categorical_cols=ds.TPCH_LITE.categorical_cols)
        assert lay.n_partitions == 1
        assert (lay.assign(pdf) == 0).all()

    def test_rejects_bad_k(self, pdf, workload):
        with pytest.raises(ValueError):
            build_qdtree(pdf, workload.queries, 0)

    def test_nan_does_not_disable_cuts(self):
        """NaN in the sample leaves the column's range (and cuts) intact; NaN
        rows route right, and pruning on the tree's partitions stays sound."""
        g = np.random.default_rng(0)
        x = g.uniform(0, 100, 1000)
        x[::50] = np.nan
        frame = pd.DataFrame({"x": x})
        qs = [Query((RangePredicate("x", lo=lo, hi=lo + 10),)) for lo in range(0, 90, 10)]
        lay = build_qdtree(frame, qs, 8)
        assert lay.n_partitions > 1
        bids = lay.assign(frame)
        m = build_materialized(frame, bids, name="nan", categorical_cols=())
        for q in qs:
            assert not q.mask(frame)[~m.relevant_partitions(q)[bids]].any()


# (dataset, case) -> (n_partitions, SHA-1 of the BIDs assigned to the frame).
# Any change to the greedy construction's cuts, split order or tie-break
# shows up here.
GOLDEN_TREES = {
    ("tpch_lite", "window-k1"): (1, "a8a3677bbd60c531716a0df55b7d2d63d32b0255"),
    ("tpch_lite", "window-k8"): (8, "d32fcf4dd7ddc486c20772b507f2290f27f857e3"),
    ("tpch_lite", "window-k24"): (24, "cd3cb49dc450d71518d88488382d40f053e4b30f"),
    ("tpch_lite", "window-k24-minleaf"): (16, "e97a910b1c3305add9b8ed7df51b7a08cd7075a5"),
    ("tpch_lite", "static-k24"): (24, "9843de48534a15083c728feac21f6bb6517e81e4"),
    ("tpcds_lite", "window-k1"): (1, "a8a3677bbd60c531716a0df55b7d2d63d32b0255"),
    ("tpcds_lite", "window-k8"): (8, "a64283dd455187916fac69e0d48215faa96429d2"),
    ("tpcds_lite", "window-k24"): (24, "aa17c069dc2ec55c97851df1a87bdb4ce9375478"),
    ("tpcds_lite", "window-k24-minleaf"): (17, "6a220ada1ee6ee728281c6aa06c86715f144dbd7"),
    ("tpcds_lite", "static-k24"): (24, "07cb1ab0fad5a18cf0b6367ba2a573aa9ded766e"),
    ("telemetry", "window-k1"): (1, "a8a3677bbd60c531716a0df55b7d2d63d32b0255"),
    ("telemetry", "window-k8"): (8, "ab4015d372ddfb150ba2c226b50c665865fb30c2"),
    ("telemetry", "window-k24"): (24, "54f4c1fdfb2610c718808ed5ddb5c62b120ddff5"),
    ("telemetry", "window-k24-minleaf"): (15, "b2aea93d7a03707ce202d94075dcad2941026211"),
    ("telemetry", "static-k24"): (24, "19f836252e569d29a583cfd99db7502242abccd9"),
}
# case -> (query slice, k, min_leaf_frac). The windows are 200 queries, as
# the layout manager's sliding window; the static case passes all 3K
# queries, so build_qdtree's 64-query subsample is exercised; a leaf-size
# floor of 0.9 stops every tree here short of k.
GOLDEN_CASES = {
    "window-k1": (slice(1400, 1600), 1, 0.25),
    "window-k8": (slice(1400, 1600), 8, 0.25),
    "window-k24": (slice(1400, 1600), 24, 0.25),
    "window-k24-minleaf": (slice(1400, 1600), 24, 0.9),
    "static-k24": (slice(None), 24, 0.25),
}


@functools.lru_cache(maxsize=None)
def _golden_inputs(name):
    frame = ds.build_pdf(name, sf=0.01, seed=1)
    sample = frame.sample(n=2000, random_state=0).reset_index(drop=True)
    wl = generate_workload(name, n_queries=3000, n_segments=20, seed=7)
    return frame, sample, wl.queries


@pytest.mark.parametrize("name,case", sorted(GOLDEN_TREES))
def test_qdtree_golden_assignment(name, case):
    frame, sample, queries = _golden_inputs(name)
    window, k, frac = GOLDEN_CASES[case]
    lay = build_qdtree(
        sample, queries[window], k, categorical_cols=ds.SPECS[name].categorical_cols, min_leaf_frac=frac
    )
    digest = hashlib.sha1(lay.assign(frame).astype(np.int64).tobytes()).hexdigest()
    assert (lay.n_partitions, digest) == GOLDEN_TREES[name, case]


# Inputs the dataset goldens never hold, on a frame with numeric x, y and
# string s, t. case -> (query kind, missing values in s and t, dtype of s
# and t, (n_partitions, SHA-1 of the BIDs assigned to the frame)).
EDGE_TREES = {
    "two-in-one-column": ("two-in-one-column", False, "category", (12, "4abe10adb764248c0c25adab269dcb4a7b05bf4f")),
    "absent-values": ("absent-values", False, "category", (12, "0ae2b94fee8c63808d8e611e7d9bbb15c666787c")),
    "missing-values": ("mixed", True, "category", (12, "a59021c908a3d243c102bb549106a8512037d767")),
    "object-dtype": ("mixed", True, object, (12, "a59021c908a3d243c102bb549106a8512037d767")),
    "no-in": ("no-in", False, "category", (12, "373172bbd61e54c9d23fe84770b6f02d3231c845")),
    "only-in": ("only-in", False, "category", (12, "3517202c2629d5066fcaab57cbd5f772bfe568d9")),
    "nan-x": ("mixed", True, "category", (12, "e471070512b6ca1bd9f9b7e1827d5e2ea9e7b1ae")),
    "all-nan-y": ("no-in", False, "category", (12, "68e36cf1438a510d4e35102b89bf7af9a16b3abf")),
    "one-sided": ("one-sided", False, "category", (12, "1c0632f0930c8d966be1af12351df7df2881d231")),
    "deep": ("no-in", True, object, (24, "0f5eea2b34e9df5ec23d20577c9a4368b23cbacc")),
}
# case -> (numeric columns with NaN, k, min_leaf_frac) where a case differs
# from (no NaN, 12, 0.25): "x" puts NaN in about 30% of x, "y" in all of y.
EDGE_BUILDS = {
    "nan-x": ("x", 12, 0.25),
    "all-nan-y": ("xy", 12, 0.25),
    "one-sided": ("x", 12, 0.25),
    "deep": ("x", 24, 0.0),
}
S_DOMAIN, T_DOMAIN = list("abcdefgh"), ["p", "q", "r", "u"]


def _edge_frame(missing: bool, nan: str = "") -> pd.DataFrame:
    g = np.random.default_rng(11)
    n = 1500
    s = g.choice(S_DOMAIN, n).astype(object)
    t = g.choice(T_DOMAIN, n).astype(object)
    if missing:
        s[::7] = None
        t[3::11] = np.nan
    x, y = g.uniform(0, 100, n), g.integers(0, 50, n).astype(float)
    if "x" in nan:
        x[np.random.default_rng(13).random(n) < 0.3] = np.nan
    if "y" in nan:
        y[:] = np.nan
    return pd.DataFrame({"x": x, "y": y, "s": s, "t": t})


def _edge_queries(kind: str) -> list[Query]:
    g = np.random.default_rng(5)
    out = []
    for i in range(40):
        lo = float(g.uniform(0, 90))
        rng = RangePredicate("x", lo=lo, hi=lo + float(g.uniform(2, 20)))
        ins = InPredicate("s", frozenset(g.choice(S_DOMAIN, int(g.integers(1, 4)), replace=False).tolist()))
        tin = InPredicate("t", frozenset(g.choice(T_DOMAIN, int(g.integers(1, 3)), replace=False).tolist()))
        if kind == "two-in-one-column":
            second = InPredicate("s", frozenset(g.choice(S_DOMAIN, int(g.integers(2, 6)), replace=False).tolist()))
            preds = (rng, ins, second) if i % 2 else (ins, tin)
        elif kind == "absent-values":
            ins = InPredicate("s", ins.values | {"zz", "q'"}) if i % 3 else InPredicate("s", frozenset({"nope"}))
            preds = (rng, ins) if i % 2 else (ins, tin)
        elif kind == "no-in":
            preds = (rng, RangePredicate("y", hi=float(g.integers(5, 45)))) if i % 2 else (rng,)
        elif kind == "only-in":
            preds = (ins, tin) if i % 2 else (ins,)
        elif kind == "one-sided":
            # Each range keeps one bound; y's is below, inside or above its domain.
            xr = RangePredicate("x", lo=rng.lo) if i % 2 else RangePredicate("x", hi=rng.hi)
            yr = RangePredicate("y", lo=float(g.integers(-10, 60))) if i % 3 else RangePredicate("y", hi=float(g.integers(0, 50)))
            preds = (xr, yr, ins) if i % 4 == 1 else (xr, yr) if i % 4 == 3 else (xr,) if i % 4 == 2 else (yr, tin)
        else:
            preds = (rng, ins) if i % 2 else (tin, rng)
        out.append(Query(preds))
    return out


@pytest.mark.parametrize("case", sorted(EDGE_TREES))
def test_qdtree_edge_input_assignment(case):
    kind, missing, dtype, want = EDGE_TREES[case]
    nan, k, frac = EDGE_BUILDS.get(case, ("", 12, 0.25))
    frame = _edge_frame(missing, nan).astype({"s": dtype, "t": dtype})
    lay = build_qdtree(frame, _edge_queries(kind), k, categorical_cols=("s", "t"), min_leaf_frac=frac)
    digest = hashlib.sha1(lay.assign(frame).astype(np.int64).tobytes()).hexdigest()
    assert (lay.n_partitions, digest) == want


@pytest.mark.parametrize("pred,msg", [
    (RangePredicate("s", lo=0.0), "range predicate on categorical column 's'"),
    (InPredicate("x", frozenset({"a"})), "IN-predicate on non-categorical column 'x'"),
])
def test_qdtree_rejects_a_predicate_of_the_wrong_kind(pred, msg):
    frame = _edge_frame(False).astype({"s": "category", "t": "category"})
    with pytest.raises(ValueError, match=msg):
        build_qdtree(frame, [Query((RangePredicate("x", hi=50.0),)), Query((pred,))], 4, categorical_cols=("s", "t"))


def _sha1(a) -> str:
    return hashlib.sha1(np.asarray(a, dtype=np.int64).tobytes()).hexdigest()


# (dataset, case) -> (n_partitions, SHA-1 of z_cuts, SHA-1 of the BIDs
# assigned to the frame). Any change to the rank bounds, the ranking of
# numeric or categorical values, the bit interleave or the cut positions
# shows up here.
GOLDEN_ZORDERS = {
    ("tpch_lite", "window-k1"): (1, "da39a3ee5e6b4b0d3255bfef95601890afd80709", "a8a3677bbd60c531716a0df55b7d2d63d32b0255"),
    ("tpch_lite", "window-k8"): (8, "41503f7a4573ebc111a335d5f10d5c9fc3dc3aed", "69c4ccf89dbe71bbb0fdee926c773f4e71275d64"),
    ("tpch_lite", "window-k24"): (24, "3feeb91b0de1668c82db90b72abbadb43f3d6576", "ead9820f793897f33f26aae48a8122d6fcd3a456"),
    ("tpch_lite", "static-k1"): (1, "da39a3ee5e6b4b0d3255bfef95601890afd80709", "a8a3677bbd60c531716a0df55b7d2d63d32b0255"),
    ("tpch_lite", "static-k8"): (8, "2ffb7d6b2a9cbf75f923b41f1330fe394f9d2a30", "0cd0c1cc736548903f57e94f94518f7a8f7ec51d"),
    ("tpch_lite", "static-k24"): (24, "d1b26a323fdfaf9bfd74e2210292da4e96887c1b", "70ca1c343a9472c0831cf69bb71df622498af5fd"),
    ("tpcds_lite", "window-k1"): (1, "da39a3ee5e6b4b0d3255bfef95601890afd80709", "a8a3677bbd60c531716a0df55b7d2d63d32b0255"),
    ("tpcds_lite", "window-k8"): (8, "682e1890c171cf977f8d14a8917148ca324e82f1", "5029dd6869cbbbcf20015345cc6b54fc6fd45ec7"),
    ("tpcds_lite", "window-k24"): (24, "181bd8b46ef581bd231b539eb57d4197637c2063", "56e36b0f3730dde43cfcd4db76dd6f2eca08073e"),
    ("tpcds_lite", "static-k1"): (1, "da39a3ee5e6b4b0d3255bfef95601890afd80709", "a8a3677bbd60c531716a0df55b7d2d63d32b0255"),
    ("tpcds_lite", "static-k8"): (8, "5cc8f3ee32d42eac20edf0cd114e77127d311689", "220ab7623b135cb8ba71a5c147993276961ca758"),
    ("tpcds_lite", "static-k24"): (24, "2486a8657b7d8c386842188591bc301a0367d763", "9c70e346fba20c5979623c57b95fc12bcaa56d08"),
    ("telemetry", "window-k1"): (1, "da39a3ee5e6b4b0d3255bfef95601890afd80709", "a8a3677bbd60c531716a0df55b7d2d63d32b0255"),
    ("telemetry", "window-k8"): (8, "1d9797d7e4993239ffc85ecc9f18ad477a75b496", "c07e36f001bf7456ef72580f057101cdf34873bd"),
    ("telemetry", "window-k24"): (24, "b4852bb684a2b4f06a9322b9a72bfd6dc84dc42e", "decfda530739114fb6f16265602dab821b971e34"),
    ("telemetry", "static-k1"): (1, "da39a3ee5e6b4b0d3255bfef95601890afd80709", "a8a3677bbd60c531716a0df55b7d2d63d32b0255"),
    ("telemetry", "static-k8"): (8, "21f4116238e377831644d2b3bcf0e78888e0ed9a", "e78dc247e371767aeed65da902d41d82e0130bb3"),
    ("telemetry", "static-k24"): (24, "a21e7357e2464230694af6a5a26ac6269db38263", "18de03cb46a517b9dc6c77715f44cfcd25ab5c31"),
}
# case -> (query slice, k). The window is the layout manager's 200 queries;
# the static case orders on the whole stream's top three columns.
ZORDER_CASES = {
    f"{w}-k{k}": (window, k)
    for w, window in (("window", slice(1400, 1600)), ("static", slice(None)))
    for k in (1, 8, 24)
}


@pytest.mark.parametrize("name,case", sorted(GOLDEN_ZORDERS))
def test_zorder_golden_assignment(name, case):
    frame, sample, queries = _golden_inputs(name)
    window, k = ZORDER_CASES[case]
    lay = build_zorder(sample, queries[window], k, categorical_cols=ds.SPECS[name].categorical_cols)
    got = (lay.n_partitions, _sha1(lay.z_cuts), _sha1(lay.assign(frame)))
    assert got == GOLDEN_ZORDERS[name, case]


class TestZOrder:
    def test_top_queried_columns(self):
        qs = [
            Query((RangePredicate("a", lo=0), InPredicate("b", frozenset({"x"})))),
            Query((RangePredicate("a", lo=1),)),
            Query((RangePredicate("c", lo=1),)),
        ]
        assert top_queried_columns(qs, n_cols=2) == ("a", "b")

    def test_interleave_small_case(self):
        # 2 cols, codes a=0b10, b=0b01 -> z bits: b0=0? interleave LSB first:
        # bit0: a0=0 -> pos0, b0=1 -> pos1; bit1: a1=1 -> pos2, b1=0 -> pos3.
        z = _interleave([np.array([0b10]), np.array([0b01])], bits=2)
        assert z[0] == 0b0110

    def test_interleave_preserves_order_single_col(self):
        v = np.array([3, 1, 2, 0])
        z = _interleave([v], bits=4)
        assert (np.argsort(z) == np.argsort(v)).all()

    def test_assign_balanced(self, pdf, workload):
        lay = build_zorder(
            pdf, workload.queries, 10, categorical_cols=ds.TPCH_LITE.categorical_cols
        )
        counts = np.bincount(lay.assign(pdf), minlength=lay.n_partitions)
        assert counts.max() <= 3 * max(1, np.median(counts))

    def test_uses_workload_columns(self, pdf, workload):
        lay = build_zorder(pdf, workload.queries, 10, categorical_cols=ds.TPCH_LITE.categorical_cols)
        assert set(lay.cols) <= set(pdf.columns)
        assert len(lay.cols) == 3

    def test_skips_on_its_columns(self, pdf):
        g = np.random.default_rng(1)
        from repro.workload.templates import TPCH_TEMPLATES

        t1 = next(t for t in TPCH_TEMPLATES if t.name.startswith("q6"))
        qs = [t1.instantiate(g) for _ in range(40)]
        lay = build_zorder(pdf, qs, 16, categorical_cols=ds.TPCH_LITE.categorical_cols)
        fx = build_fixed(pdf, "l_orderkey", 16)
        assert _skipped(_mat(pdf, lay), qs) > _skipped(_mat(pdf, fx), qs)

    def test_deterministic(self, pdf, workload):
        a = build_zorder(pdf, workload.queries, 10, categorical_cols=ds.TPCH_LITE.categorical_cols)
        b = build_zorder(pdf, workload.queries, 10, categorical_cols=ds.TPCH_LITE.categorical_cols)
        np.testing.assert_array_equal(a.assign(pdf), b.assign(pdf))

    def test_categorical_zorder_column(self, pdf):
        qs = [Query((InPredicate("c_mktsegment", frozenset({"BUILDING"})),))] * 5
        lay = build_zorder(
            pdf, qs, 5, categorical_cols=ds.TPCH_LITE.categorical_cols, n_cols=1
        )
        assert lay.cols == ("c_mktsegment",)
        m = _mat(pdf, lay)
        assert _skipped(m, qs) > 0.3

    def test_rejects_bad_k(self, pdf, workload):
        with pytest.raises(ValueError):
            build_zorder(pdf, workload.queries, 0)

    def test_missing_categorical_values_take_the_top_rank(self):
        """A None or NaN in the sample is not ranked; it, and a value the
        sample lacks, take the top rank, as does the last value present."""
        s = ["b", None, "a", np.nan, "c", "a", "b", None] * 10
        sample = pd.DataFrame({"s": np.array(s, dtype=object)})
        qs = [Query((InPredicate("s", frozenset({"a"})),))]
        lay = build_zorder(sample, qs, 3, categorical_cols=("s",))
        scale = (1 << BITS) // 3
        assert lay.rank_bounds == ({"a": 0, "b": scale, "c": 2 * scale},)
        batch = pd.DataFrame({"s": np.array(["a", "b", "c", None, np.nan, "zz"], dtype=object)})
        r = lay.ranks(batch)[0]
        assert r[0] < r[1] < r[2] and (r[3:] == r[2]).all()
        assert (lay.assign(batch)[3:] == lay.assign(batch)[2]).all()

    def test_more_categorical_values_than_ranks(self):
        """2000 values share the 2^BITS ranks in value order, none wraps past
        the top rank, and a missing or unseen value takes the top rank."""
        vals = [f"v{i:04d}" for i in range(2000)]
        sample = pd.DataFrame({"s": pd.Categorical(vals[::-1])})
        qs = [Query((InPredicate("s", frozenset({"v0001"})),))]
        lay = build_zorder(sample, qs, 8, categorical_cols=("s",))
        batch = pd.DataFrame({"s": np.array(vals + [None, "zz"], dtype=object)})
        # One column: the Morton code is the rank, so BIDs follow value order.
        bids = lay.assign(batch)
        assert (np.diff(bids[:2000]) >= 0).all() and bids[0] < bids[1999]
        r = lay.ranks(batch)[0]
        assert (np.diff(r[:2000]) >= 0).all() and r[1999] < 1 << BITS
        assert r[1999] > r[1000] > r[0] == 0
        assert r[2000] == r[2001] == r[1999]

    def test_nan_does_not_poison_rank_bounds(self):
        sample = ds.build_pdf("telemetry", sf=0.005, seed=7)
        qs = generate_workload("telemetry", n_queries=200, n_segments=2, seed=7).queries
        cats = ds.TELEMETRY.categorical_cols
        col = next(c for c in build_zorder(sample, qs, 8, categorical_cols=cats).cols if c not in cats)
        sample[col] = sample[col].astype(np.float64)
        sample.loc[::7, col] = np.nan
        lay = build_zorder(sample, qs, 8, categorical_cols=cats)
        bounds = np.asarray(lay.rank_bounds[lay.cols.index(col)])
        assert len(bounds) == (1 << BITS) - 1
        assert np.isfinite(bounds).all() and (np.diff(bounds) >= 0).all()
        # NaN rows rank past the last boundary and still get a valid BID.
        bids = lay.assign(sample)
        assert ((bids >= 0) & (bids < lay.n_partitions)).all()
        assert lay.n_partitions > 1


def _bit_loop_interleave(codes, bits):
    """The reference Morton code: bit b of column j goes to position b * n + j."""
    z = np.zeros(len(codes[0]), dtype=np.int64)
    for b in range(bits):
        for j, c in enumerate(codes):
            z |= ((c >> b) & 1).astype(np.int64) << (b * len(codes) + j)
    return z


@settings(max_examples=150, deadline=None)
@given(
    n_cols=st.integers(1, 3),
    bits=st.sampled_from([1, 2, 4, BITS]),
    n=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_interleave_equals_the_bit_loop(n_cols, bits, n, seed):
    g = np.random.default_rng(seed)
    codes = [g.integers(0, 1 << bits, n) for _ in range(n_cols)]
    codes[0][0] = (1 << bits) - 1  # the top code sets every bit
    np.testing.assert_array_equal(_interleave(codes, bits), _bit_loop_interleave(codes, bits))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 300),
    n_cuts=st.integers(0, 23),
    span=st.sampled_from([4, 64, 1 << BITS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bids_equal_searchsorted_of_every_code(n, n_cuts, span, seed):
    """BIDs from one sort of the codes are the bucket of each code among the
    cuts, including codes equal to a cut, below the first and past the last."""
    g = np.random.default_rng(seed)
    ranks = [g.integers(0, span, n), g.integers(0, span, n)]
    z = _interleave(ranks, BITS)
    pool = np.concatenate([z, g.integers(0, 1 << (2 * BITS), n_cuts)])
    cuts = tuple(int(c) for c in np.unique(g.choice(pool, n_cuts))) if len(pool) and n_cuts else ()
    lay = ZOrderLayout(cols=("a", "b"), rank_bounds=((), ()), z_cuts=cuts)
    np.testing.assert_array_equal(lay.bids(ranks), np.searchsorted(np.asarray(cuts), z, side="right"))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 5000),
    distinct=st.sampled_from([1, 2, 3, 10, 1000, 10**12]),
    is_float=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, distinct=1, is_float=False, seed=0)
@example(n=5000, distinct=2, is_float=True, seed=0)
@example(n=4000, distinct=10**12, is_float=False, seed=1)
def test_sorted_quantiles_equal_numpy(n, distinct, is_float, seed):
    """The one-sort quantiles are np.quantile's, bit for bit (heavy duplicates too)."""
    g = np.random.default_rng(seed)
    v = g.integers(-distinct, distinct + 1, n)
    if is_float:
        v = v * 0.37 + g.normal(scale=1e-3) * (distinct > 100)
    for qs in (np.linspace(0, 1, (1 << BITS) + 1)[1:-1], g.random(64), np.array([0.0, 0.5, 1.0])):
        assert np.array_equal(sorted_quantiles(v, qs), np.quantile(v, qs))


# Values of the string columns in a build sample, missing ones included. A
# batch also holds "zz", which no sample holds.
S_VALUES = ["a", "b", "o'b", None]
T_VALUES = ["c", "d", np.nan]
# A domain in no sorted order, with a value no frame holds: codes must not
# depend on the order or the extent of the categories.
S_DTYPE = pd.CategoricalDtype(["zz", "o'b", "unused", "b", "a"])
T_DTYPE = pd.CategoricalDtype(["d", "zz", "c"])

frame_rows = st.tuples(
    st.sampled_from([np.nan, -1.0, 0.0, 1.5, 2.0, 3.0]),
    st.sampled_from(S_VALUES),
    st.sampled_from(T_VALUES),
)
layout_queries = st.lists(
    st.builds(
        Query,
        st.lists(
            st.builds(RangePredicate, st.just("x"), st.sampled_from([-1.0, 0.0, 1.5]), st.sampled_from([2.0, 4.0]))
            | st.builds(InPredicate, st.sampled_from(["s", "t"]),
                        st.frozensets(st.sampled_from(["a", "b", "o'b", "c", "d", "zz"]), min_size=1, max_size=3)),
            min_size=1, max_size=3,
        ).map(tuple),
    ),
    max_size=6,
)


def _frame(rows) -> pd.DataFrame:
    """Object-dtype strings: the form ``mapInPandas`` batches arrive in."""
    return pd.DataFrame({
        "x": np.array([r[0] for r in rows], dtype=np.float64),
        "s": np.array([r[1] for r in rows], dtype=object),
        "t": np.array([r[2] for r in rows], dtype=object),
    })


@settings(max_examples=150, deadline=None)
@given(
    sample_rows=st.lists(frame_rows, min_size=1, max_size=30),
    new_rows=st.lists(
        st.tuples(st.sampled_from([np.nan, 0.5, 5.0]), st.sampled_from(["zz", None]), st.sampled_from(["zz", "c"])),
        max_size=10,
    ),
    queries=layout_queries,
    kind=st.sampled_from(["fixed", "qdtree", "zorder"]),
    k=st.integers(1, 6),
)
def test_assign_is_the_same_on_object_and_categorical_frames(sample_rows, new_rows, queries, kind, k):
    """A layout routes a Spark batch (object strings) and a builder frame
    (``Categorical``) of the same rows alike, with missing values and values
    absent from the build sample; pruning is sound on both forms. A layout
    built on either form of the sample is the same."""
    sample_obj = _frame(sample_rows)
    batch_obj = _frame(sample_rows + new_rows)

    def categorical(frame):
        return frame.astype({"s": S_DTYPE, "t": T_DTYPE})

    def build(sample):
        if kind == "fixed":
            return build_fixed(sample, "x", k)
        if kind == "qdtree":
            return build_qdtree(sample, queries, k, categorical_cols=("s", "t"))
        return build_zorder(sample, queries, k, categorical_cols=("s", "t"))

    lay = build(categorical(sample_obj))
    bids = lay.assign(batch_obj)
    assert ((bids >= 0) & (bids < lay.n_partitions)).all()
    np.testing.assert_array_equal(lay.assign(categorical(batch_obj)), bids)
    np.testing.assert_array_equal(build(sample_obj).assign(batch_obj), bids)
    for frame in (batch_obj, categorical(batch_obj)):
        m = build_materialized(frame, bids, name="h", categorical_cols=("s", "t"))
        for q in queries:
            assert not q.mask(frame)[~m.relevant_partitions(q)[bids]].any(), q


def _touches(q: Query, ranges: dict, sets: dict) -> bool:
    """Whether ``q`` can touch a node with numeric ``ranges`` ``(lo, hi)`` and
    categorical value ``sets``: on each column it filters, the intersection
    of its predicates meets the node's range or set."""
    bounds, values = {}, {}
    for p in q.predicates:
        if isinstance(p, RangePredicate):
            lo, hi = bounds.get(p.col, (-np.inf, np.inf))
            bounds[p.col] = (lo if p.lo is None else max(lo, p.lo), hi if p.hi is None else min(hi, p.hi))
        else:
            values[p.col] = values[p.col] & p.values if p.col in values else p.values
    return all(ranges[c][1] >= lo and ranges[c][0] <= hi for c, (lo, hi) in bounds.items()) and all(
        sets[c] & v for c, v in values.items()
    )


def _root_benefits(frame: pd.DataFrame, queries, min_rows: int) -> tuple[list, list[int]]:
    """Each harvested cut's root benefit, by routing the frame: the rows each
    child gets times the root-touching queries that cannot touch that child.
    A child's range on a numeric cut column is the root's, cut at ``v``
    (``[lo, nextafter(v, -inf)]`` and ``[v, hi]``); its value set on a
    categorical one is the values its rows hold. A numeric cut scores only
    when both children hold a number, and any cut only when both children
    hold ``min_rows`` rows."""

    def span(v):
        v = v[~np.isnan(v)]
        return (float(v.min()), float(v.max())) if len(v) else (np.inf, -np.inf)

    ranges = {c: span(frame[c].to_numpy(np.float64)) for c in ("x", "y")}
    sets = {"s": set(frame["s"].dropna())}
    at_root = [q for q in queries if _touches(q, ranges, sets)]
    cuts, ben = harvest_cuts(queries), []
    for cut in cuts:
        col = frame[cut.col]
        if isinstance(cut, NumCut):
            x = col.to_numpy(np.float64)
            left = x < cut.v
            if not (x >= cut.v).any() or not left.any():
                ben.append(0)
                continue
        else:
            left = col.isin(cut.values).to_numpy()
        n1, n = int(left.sum()), len(frame)
        if min(n1, n - n1) < min_rows:
            ben.append(0)
            continue
        total = 0
        for side, rows in ((left, n1), (~left, n - n1)):
            r, s = dict(ranges), dict(sets)
            if isinstance(cut, NumCut):
                lo, hi = ranges[cut.col]
                r[cut.col] = (lo, float(np.nextafter(cut.v, -np.inf))) if side is left else (cut.v, hi)
            else:
                s[cut.col] = set(col[side].dropna())
            total += rows * sum(not _touches(q, r, s) for q in at_root)
        ben.append(total)
    return cuts, ben


oracle_queries = st.lists(
    st.builds(
        Query,
        st.lists(
            st.tuples(
                st.sampled_from(["x", "y"]),
                st.sampled_from([None, -np.inf, -1.0, 0.0, 1.5, 5.0]), st.sampled_from([None, 0.0, 2.0, 4.0, 7.0, np.inf]),
            ).filter(lambda t: t[1] is not None or t[2] is not None).map(lambda t: RangePredicate(*t))
            | st.builds(InPredicate, st.just("s"), st.frozensets(st.sampled_from(["a", "b", "c", "zz"]), min_size=1, max_size=3)),
            min_size=1, max_size=3,
        ).map(tuple),
    ),
    min_size=1, max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from([np.nan, -np.inf, np.inf, -1.0, 0.0, 1.5, 2.0, 3.0]),
            st.sampled_from([np.nan, 0.0, 5.0, 7.0]),
            st.sampled_from(["a", "b", "c", None]),
        ),
        min_size=1, max_size=40,
    ),
    all_nan_y=st.booleans(),
    queries=oracle_queries,
)
def test_qdtree_root_cut_is_the_first_brute_force_argmax(rows, all_nan_y, queries):
    """With k=2 the tree's one cut is the first cut of largest brute-force
    benefit, and there is no cut when no benefit is positive."""
    frame = pd.DataFrame({
        "x": np.array([r[0] for r in rows], dtype=np.float64),
        "y": np.full(len(rows), np.nan) if all_nan_y else np.array([r[1] for r in rows], dtype=np.float64),
        "s": np.array([r[2] for r in rows], dtype=object),
    })
    lay = build_qdtree(frame, queries, 2, categorical_cols=("s",))
    cuts, ben = _root_benefits(frame, queries, max(1, int(0.25 * len(frame) / 2)))
    best = int(np.argmax(ben))
    if ben[best] > 0:
        assert lay.root.cut == cuts[best], (cuts, ben)
    else:
        assert lay.root.cut is None and lay.n_partitions == 1
