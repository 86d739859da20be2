"""Unit tests for the lite dataset builders (repro.workload.datasets)."""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.workload import datasets as ds


# builder -> column -> SHA-1 of its values as strings (sf=0.002, default
# seed), recorded when categorical columns were still object arrays.
GOLDEN_VALUES = {
    "telemetry": {
        "arrival_time": "9e7d0f54b464df15b315cb49cc733e7f81113d6b",
        "duration_ms": "02786c45f732d77ac29976d1b775dabe44694917",
        "rows_ingested": "2210f28e78bec09617d61eb341ef0bc3fed59c31",
        "payload_kb": "f3d50b7006e20c50f481d85b4d36c13ad6826c10",
        "collector": "67c20f5e2b2d3acc6d256453087e40fbbc666a52",
        "job_type": "cc9baff6572e4fb285ff8bebeb2465aa6d906e0d",
        "status": "ffb89bf0e76e82e1cd2078055daf0e3b62935277",
        "team": "d3485eeaf451ee62b6dccb2b4e61d8f07ba26b37",
    },
    "tpcds_lite": {
        "ss_sold_date": "254368706beafc41d35947017078e29cbce9ee62",
        "d_year": "d96bdc0658aae61c53acc708b1672ef2f59f110c",
        "d_moy": "6f863569e6a1e75c65dbcec7f992dcd9e6a83e9e",
        "ss_quantity": "8cc0bdc8fa73fc413508fbf1f473a0b537cd2482",
        "ss_sales_price": "df6697c2ac9e382f7b873b55b08fc9914ffd70d2",
        "ss_ext_sales_amt": "81a82473039a5873faa370640ea78f86b3731c77",
        "ss_net_profit": "9965bbe59c59a6a260a5785fb4cc205bae857bec",
        "ss_wholesale_cost": "13f6ac3b754355853e653fbea0057df1d28edd03",
        "i_price": "ca335ad55f46e0a55b99171c123742fe5cac58fe",
        "hd_dep_count": "6d39304d498092e5cd7c8f5f13afe280a15bc6a2",
        "s_store": "82fc6d6c7dd4eeb5f260ed77386f2e6b7a37cf3c",
        "s_state": "c997c4f63882159f378a9d95d3c8793de9d807f5",
        "i_category": "3b56b1b074b5078c573c30a9d3106f43ca54af61",
        "i_brand": "8697b42d429e923d015f67e7dbcee21a155a8da3",
        "cd_gender": "18067fc1ad92f0ced888c3ba531048142987e557",
        "cd_marital_status": "ffa8433de10c2b084a2a051770c4a7d83196d58c",
        "cd_education": "7cfa98eb5034188df1fc4378195ea761e8c869c9",
        "ca_state": "ed91ba6d2d3bbe0b4d6534ef528d69cbd3bc08fa",
    },
    "tpch_lite": {
        "l_orderkey": "2c14a885b979d4827f036de4a02fe5afea11b94a",
        "l_partkey": "61209aec5aaefdd85779f00cb69d1f85d8aaa4e4",
        "l_quantity": "52a97458b0ff1e0b6efadd09525124a330d01196",
        "l_extendedprice": "6e53120419cffadba6811064b34021a18bb90f4f",
        "l_discount": "6f7d806643b34f79ed784196238e9ee157aff5d3",
        "l_shipdate": "56585bf941ddeb5db37514c1657b9079913b3aef",
        "l_commitdate": "d83147ce61b6dc23747737425c76ef4f2f292814",
        "l_receiptdate": "516af3c8a94c0d761a4c394f726b41ac42489dfc",
        "l_returnflag": "1e8f611bda37790f6152dab3b35e26dd7593fde6",
        "l_linestatus": "4645607cd54f44a2eecdda30106f1ca945d551be",
        "l_shipmode": "79cbd176292063daf04cdfaa28744a26f98e3d2f",
        "o_orderdate": "371c2e226284ecbe10d7c9975ff384bf11939bea",
        "o_totalprice": "8b63ecd3d533853618eece9d65fa7ecfbd4712b8",
        "o_orderpriority": "82194106bd3548d886c6d00a5635d212c021151d",
        "o_orderstatus": "b16dafefc80771c3dae6573af464f021309f6cb8",
        "c_nationkey": "db1b7243d3b764cb2259a11dc3f5e08705e60854",
        "c_acctbal": "1e534a6f5f9f7874ec9c4fa22d783672f4aec8b5",
        "c_mktsegment": "298ba35d8ee6fa5f9f2c94cdd04e639b754d29d9",
        "p_brand": "081cf41e8e278d22d1c9b281bf91d221d4b784a3",
        "p_type": "5e9f6df17474230abb99d33d7beff22cfc34711e",
        "p_container": "263cdf595958d75e033a1c1cf8632b27c0496e56",
        "p_size": "7d434d77fce230c77d8684d0b499f680ebb75347",
        "p_retailprice": "41b2e833916076bf34d364764870747e46a17528",
    },
}


@pytest.mark.parametrize("name", sorted(ds.BUILDERS))
class TestBuilders:
    def test_deterministic(self, name):
        a = ds.build_pdf(name, sf=0.002, seed=3)
        b = ds.build_pdf(name, sf=0.002, seed=3)
        pd.testing.assert_frame_equal(a, b)

    def test_seed_changes_data(self, name):
        a = ds.build_pdf(name, sf=0.002, seed=3)
        b = ds.build_pdf(name, sf=0.002, seed=4)
        assert not a.equals(b)

    def test_schema_matches_spec(self, name):
        spec = ds.SPECS[name]
        pdf = ds.build_pdf(name, sf=0.002)
        for c in spec.numeric_cols:
            assert np.issubdtype(pdf[c].dtype, np.number), c
        for c in spec.categorical_cols:
            dtype = pdf[c].dtype
            assert isinstance(dtype, pd.CategoricalDtype), c
            cats = dtype.categories.tolist()
            assert cats == sorted(cats) and all(isinstance(v, str) for v in cats), c

    def test_values_are_pinned(self, name):
        """Every column holds the values recorded before categorical columns
        became ``Categorical``: the dtype changed, the data did not."""
        pdf = ds.build_pdf(name, sf=0.002)
        got = {
            c: hashlib.sha1("\x1f".join(map(str, pdf[c].tolist())).encode()).hexdigest()
            for c in pdf.columns
        }
        assert got == GOLDEN_VALUES[name]

    def test_scale_factor_scales_rows(self, name):
        small = ds.build_pdf(name, sf=0.002)
        big = ds.build_pdf(name, sf=0.01)
        assert len(big) > len(small) * 3

    def test_default_sort_col_exists(self, name):
        spec = ds.SPECS[name]
        pdf = ds.build_pdf(name, sf=0.002)
        assert spec.default_sort_col in pdf.columns

    def test_no_nulls(self, name):
        pdf = ds.build_pdf(name, sf=0.002)
        assert not pdf.isna().any().any()


class TestTpchLite:
    def test_date_ordering(self):
        pdf = ds.tpch_lite_pdf(sf=0.005)
        assert (pdf["l_shipdate"] > pdf["o_orderdate"]).all()
        assert (pdf["l_receiptdate"] >= pdf["l_shipdate"]).all()

    def test_domains(self):
        pdf = ds.tpch_lite_pdf(sf=0.005)
        assert pdf["l_quantity"].between(1, 50).all()
        assert pdf["l_discount"].between(0, 0.10).all()
        assert pdf["c_nationkey"].between(0, 24).all()
        assert set(pdf["c_mktsegment"]) <= set(ds.MKTSEGMENTS)
        assert set(pdf["p_brand"]) <= set(ds.BRANDS)

    def test_dates_within_span(self):
        pdf = ds.tpch_lite_pdf(sf=0.005)
        for c in ("l_shipdate", "l_commitdate", "l_receiptdate", "o_orderdate"):
            assert pdf[c].between(0, ds.DATE_SPAN - 1).all(), c


class TestTpcdsLite:
    def test_derived_date_columns_consistent(self):
        pdf = ds.tpcds_lite_pdf(sf=0.005)
        assert (pdf["d_year"] == 1992 + pdf["ss_sold_date"] // 365).all()
        assert pdf["d_moy"].between(1, 12).all()

    def test_store_skew(self):
        """Stores are zipf-popular: the top store should dominate the tail."""
        pdf = ds.tpcds_lite_pdf(sf=0.01)
        counts = pdf["s_store"].value_counts()
        assert counts.iloc[0] > 2 * counts.iloc[-1]


class TestTelemetry:
    def test_arrival_time_skews_recent(self):
        pdf = ds.telemetry_pdf(sf=0.01)
        t = pdf["arrival_time"]
        recent = (t > ds.TELEMETRY_SPAN_MIN / 2).mean()
        assert recent > 0.6  # sqrt sampling puts ~75% in the later half

    def test_status_mostly_success(self):
        pdf = ds.telemetry_pdf(sf=0.01)
        assert (pdf["status"] == "SUCCESS").mean() > 0.7

    def test_collector_zipf(self):
        pdf = ds.telemetry_pdf(sf=0.01)
        counts = pdf["collector"].value_counts()
        assert counts.iloc[0] > 5 * counts.iloc[len(counts) // 2]


def test_unknown_dataset_raises():
    with pytest.raises(KeyError):
        ds.build_pdf("nope")


def test_minimum_row_floor():
    pdf = ds.build_pdf("tpch_lite", sf=1e-9)
    assert len(pdf) >= 64
