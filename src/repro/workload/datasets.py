"""Synthetic "lite" versions of the paper's three evaluation datasets.

The paper evaluates on (1) TPC-H SF=100 denormalized against lineitem,
(2) TPC-DS SF=10 denormalized against store_sales, and (3) a proprietary
VMware telemetry table. None of those are usable here at that scale, so we
build container-scale synthetic equivalents with the same *shape*: a wide
denormalized fact table whose columns carry the predicates the paper's query
templates filter on (see DESIGN.md §3 for the substitution rationale).

Conventions: dates are int32 "days since 1992-01-01" (resp. minutes for
telemetry) so every non-categorical column is numeric — this keeps min/max
partition metadata, Z-ordering and the DuckDB oracle uniform. Categorical
columns are pandas ``Categorical`` over string values, with the column's
domain as sorted categories: each is built from the drawn value indices, so
the layouts read dictionary codes without re-coding the strings. All
builders are deterministic in ``seed``.

Row counts at sf=1.0 are ~600K (fact-table rows), so tests at sf=0.01 get
~6K rows and benchmarks at sf=0.1 get ~60K.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

_N_FACT_PER_SF = 600_000

# Day span of the date columns (7 years, like TPC-H's 1992-1998).
DATE_SPAN = 2_556
# Telemetry arrival_time spans 6 months of minutes.
TELEMETRY_SPAN_MIN = 6 * 30 * 24 * 60


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of a lite dataset used by layouts and templates."""

    name: str
    categorical_cols: tuple[str, ...]
    numeric_cols: tuple[str, ...]
    default_sort_col: str  # column the default (non-workload-aware) layout sorts by

    @property
    def all_cols(self) -> tuple[str, ...]:
        return self.numeric_cols + self.categorical_cols


def _zipf_index(g: np.random.Generator, n_values: int, n: int, a: float = 1.3) -> np.ndarray:
    """``n`` indices into a list of ``n_values``, zipf-popular by position."""
    ranks = np.arange(1, n_values + 1, dtype=float)
    w = ranks**-a
    w /= w.sum()
    return g.choice(n_values, size=n, p=w)


def _categorical(values: list[str], idx: np.ndarray) -> pd.Categorical:
    """``values[idx]`` as a ``Categorical`` whose categories are ``sorted(values)``.

    Drawing indices and coding them here gives the values a draw from
    ``values`` itself would give (``Generator.choice`` consumes the same
    random numbers for an array and for its length).
    """
    cats = sorted(values)
    rank = np.array([cats.index(v) for v in values], dtype=np.int64)
    return pd.Categorical.from_codes(rank[idx], categories=cats)


# ---------------------------------------------------------------------------
# TPC-H lite: lineitem denormalized against orders, customer, part.
# ---------------------------------------------------------------------------

TPCH_LITE = DatasetSpec(
    name="tpch_lite",
    numeric_cols=(
        "l_quantity",
        "l_extendedprice",
        "l_discount",
        "l_shipdate",
        "l_commitdate",
        "l_receiptdate",
        "o_orderdate",
        "o_totalprice",
        "c_nationkey",
        "c_acctbal",
        "p_size",
        "p_retailprice",
    ),
    categorical_cols=(
        "l_returnflag",
        "l_linestatus",
        "l_shipmode",
        "o_orderpriority",
        "o_orderstatus",
        "c_mktsegment",
        "p_brand",
        "p_type",
        "p_container",
    ),
    default_sort_col="l_shipdate",
)

RETURNFLAGS = list("NRA")
LINESTATUSES = list("OF")
ORDERSTATUSES = ["O", "F", "P"]
SHIPMODES = ["AIR", "AIR REG", "MAIL", "SHIP", "TRUCK", "RAIL", "FOB"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"]
MKTSEGMENTS = ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"]
BRANDS = [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)]
PTYPES = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
CONTAINERS = [f"{a} {b}" for a in ("SM", "MED", "LG", "JUMBO") for b in ("CASE", "BOX", "PKG")]


def tpch_lite_pdf(sf: float = 0.01, seed: int = 0) -> pd.DataFrame:
    """Denormalized lineitem ⋈ orders ⋈ customer ⋈ part fact table."""
    n = max(64, int(_N_FACT_PER_SF * sf))
    n_orders = max(16, n // 4)
    n_cust = max(8, n // 40)
    n_part = max(8, n // 30)
    g = np.random.default_rng(seed)

    # Dimension tables as column arrays, joined via fancy indexing.
    o_orderdate = g.integers(0, DATE_SPAN - 150, n_orders)
    o_totalprice = (g.random(n_orders) * 500_000 + 1_000).round(2)
    o_priority = g.choice(len(PRIORITIES), n_orders)
    o_status = g.choice(len(ORDERSTATUSES), n_orders)
    o_custkey = g.integers(0, n_cust, n_orders)

    c_nationkey = g.integers(0, 25, n_cust)
    c_acctbal = (g.random(n_cust) * 11_000 - 1_000).round(2)
    c_mktsegment = g.choice(len(MKTSEGMENTS), n_cust)

    p_brand = g.choice(len(BRANDS), n_part)
    p_type = g.choice(len(PTYPES), n_part)
    p_container = g.choice(len(CONTAINERS), n_part)
    p_size = g.integers(1, 51, n_part)
    p_retailprice = (900 + (np.arange(n_part) % 1000) / 10.0).round(2)

    okey = g.integers(0, n_orders, n)
    pkey = g.integers(0, n_part, n)
    ckey = o_custkey[okey]

    # lineitem dates hang off the order date, as in real TPC-H.
    ship_lag = g.integers(1, 122, n)
    l_shipdate = np.minimum(o_orderdate[okey] + ship_lag, DATE_SPAN - 1)
    l_commitdate = np.minimum(o_orderdate[okey] + g.integers(30, 92, n), DATE_SPAN - 1)
    l_receiptdate = np.minimum(l_shipdate + g.integers(1, 31, n), DATE_SPAN - 1)

    return pd.DataFrame(
        {
            "l_orderkey": okey.astype(np.int64),
            "l_partkey": pkey.astype(np.int64),
            "l_quantity": g.integers(1, 51, n).astype(np.float64),
            "l_extendedprice": (g.random(n) * 90_000 + 900).round(2),
            "l_discount": (g.integers(0, 11, n) / 100.0),
            "l_shipdate": l_shipdate.astype(np.int32),
            "l_commitdate": l_commitdate.astype(np.int32),
            "l_receiptdate": l_receiptdate.astype(np.int32),
            "l_returnflag": _categorical(RETURNFLAGS, g.choice(len(RETURNFLAGS), n)),
            "l_linestatus": _categorical(LINESTATUSES, g.choice(len(LINESTATUSES), n)),
            "l_shipmode": _categorical(SHIPMODES, g.choice(len(SHIPMODES), n)),
            "o_orderdate": o_orderdate[okey].astype(np.int32),
            "o_totalprice": o_totalprice[okey],
            "o_orderpriority": _categorical(PRIORITIES, o_priority[okey]),
            "o_orderstatus": _categorical(ORDERSTATUSES, o_status[okey]),
            "c_nationkey": c_nationkey[ckey].astype(np.int32),
            "c_acctbal": c_acctbal[ckey],
            "c_mktsegment": _categorical(MKTSEGMENTS, c_mktsegment[ckey]),
            "p_brand": _categorical(BRANDS, p_brand[pkey]),
            "p_type": _categorical(PTYPES, p_type[pkey]),
            "p_container": _categorical(CONTAINERS, p_container[pkey]),
            "p_size": p_size[pkey].astype(np.int32),
            "p_retailprice": p_retailprice[pkey],
        }
    )


# ---------------------------------------------------------------------------
# TPC-DS lite: store_sales denormalized against date/store/item/demographics.
# ---------------------------------------------------------------------------

TPCDS_LITE = DatasetSpec(
    name="tpcds_lite",
    numeric_cols=(
        "ss_sold_date",
        "d_year",
        "d_moy",
        "ss_quantity",
        "ss_sales_price",
        "ss_ext_sales_amt",
        "ss_net_profit",
        "i_price",
        "hd_dep_count",
        "ss_wholesale_cost",
    ),
    categorical_cols=(
        "s_store",
        "s_state",
        "i_category",
        "i_brand",
        "cd_gender",
        "cd_marital_status",
        "cd_education",
        "ca_state",
    ),
    default_sort_col="ss_sold_date",
)

CATEGORIES = ["Books", "Music", "Home", "Sports", "Shoes", "Women", "Men", "Children", "Electronics", "Jewelry"]
EDUCATIONS = ["Primary", "Secondary", "College", "2 yr Degree", "4 yr Degree", "Advanced Degree", "Unknown"]
MARITALS = ["M", "S", "D", "W", "U"]
ITEM_BRANDS = [f"brand#{k}" for k in range(1, 51)]
GENDERS = ["M", "F"]
STORES = [f"store_{k:02d}" for k in range(20)]
STATES = ["GA", "CA", "TX", "NY", "WA", "IL", "FL", "OH", "PA", "MI", "NC", "VA", "TN", "MO", "MD", "CO", "OR", "AZ", "MA", "NJ"]


def tpcds_lite_pdf(sf: float = 0.01, seed: int = 10) -> pd.DataFrame:
    """Denormalized store_sales fact table with dimension attributes inline."""
    n = max(64, int(_N_FACT_PER_SF * sf))
    n_item = max(8, n // 30)
    n_cust = max(8, n // 40)
    g = np.random.default_rng(seed)

    i_category = g.choice(len(CATEGORIES), n_item)
    i_brand = g.choice(len(ITEM_BRANDS), n_item)
    i_price = (g.random(n_item) * 300 + 1).round(2)

    cd_gender = g.choice(len(GENDERS), n_cust)
    cd_marital = g.choice(len(MARITALS), n_cust)
    cd_education = g.choice(len(EDUCATIONS), n_cust)
    hd_dep = g.integers(0, 10, n_cust)
    ca_state = _zipf_index(g, len(STATES), n_cust, a=1.0)

    ikey = g.integers(0, n_item, n)
    ckey = g.integers(0, n_cust, n)
    sold = g.integers(0, DATE_SPAN, n)
    # Store ``store_{k}`` is in state ``STATES[k % len(STATES)]``.
    store = _zipf_index(g, len(STORES), n, a=0.8)
    qty = g.integers(1, 101, n)
    price = i_price[ikey] * (0.5 + g.random(n) * 0.7)

    return pd.DataFrame(
        {
            "ss_sold_date": sold.astype(np.int32),
            "d_year": (1992 + sold // 365).astype(np.int32),
            "d_moy": (1 + (sold % 365) // 31).clip(1, 12).astype(np.int32),
            "ss_quantity": qty.astype(np.int32),
            "ss_sales_price": price.round(2),
            "ss_ext_sales_amt": (price * qty).round(2),
            "ss_net_profit": ((price - i_price[ikey] * 0.6) * qty).round(2),
            "ss_wholesale_cost": (i_price[ikey] * 0.6).round(2),
            "i_price": i_price[ikey],
            "hd_dep_count": hd_dep[ckey].astype(np.int32),
            "s_store": _categorical(STORES, store),
            "s_state": _categorical(STATES, store % len(STATES)),
            "i_category": _categorical(CATEGORIES, i_category[ikey]),
            "i_brand": _categorical(ITEM_BRANDS, i_brand[ikey]),
            "cd_gender": _categorical(GENDERS, cd_gender[ckey]),
            "cd_marital_status": _categorical(MARITALS, cd_marital[ckey]),
            "cd_education": _categorical(EDUCATIONS, cd_education[ckey]),
            "ca_state": _categorical(STATES, ca_state[ckey]),
        }
    )


# ---------------------------------------------------------------------------
# Telemetry lite: ingestion-job monitoring table (VMware SuperCollider stand-in).
# ---------------------------------------------------------------------------

TELEMETRY = DatasetSpec(
    name="telemetry",
    numeric_cols=("arrival_time", "duration_ms", "rows_ingested", "payload_kb"),
    categorical_cols=("collector", "job_type", "status", "team"),
    default_sort_col="arrival_time",
)

COLLECTORS = [f"collector_{k:03d}" for k in range(50)]
JOB_TYPES = [f"job_{k}" for k in range(10)]
TEAMS = [f"team_{k:02d}" for k in range(30)]
STATUSES = ["SUCCESS", "FAILED", "TIMEOUT", "RETRY"]


def telemetry_pdf(sf: float = 0.01, seed: int = 20) -> pd.DataFrame:
    """Ingestion-job log: time-skewed arrivals, zipfian collectors (§VI-A2)."""
    n = max(64, int(_N_FACT_PER_SF * sf))
    g = np.random.default_rng(seed)
    # Arrivals grow over time (recent periods are busier), matching a
    # production log table where ingestion volume increases.
    t = (TELEMETRY_SPAN_MIN * np.sqrt(g.random(n))).astype(np.int64)
    status = g.choice(len(STATUSES), n, p=[0.85, 0.08, 0.04, 0.03])
    return pd.DataFrame(
        {
            "arrival_time": t.astype(np.int64),
            "duration_ms": (g.lognormal(8, 1.2, n)).round(1),
            "rows_ingested": g.integers(0, 5_000_000, n).astype(np.int64),
            "payload_kb": (g.lognormal(6, 1.5, n)).round(1),
            "collector": _categorical(COLLECTORS, _zipf_index(g, len(COLLECTORS), n, a=1.2)),
            "job_type": _categorical(JOB_TYPES, _zipf_index(g, len(JOB_TYPES), n, a=0.9)),
            "status": _categorical(STATUSES, status),
            "team": _categorical(TEAMS, _zipf_index(g, len(TEAMS), n, a=1.0)),
        }
    )


SPECS: dict[str, DatasetSpec] = {
    "tpch_lite": TPCH_LITE,
    "tpcds_lite": TPCDS_LITE,
    "telemetry": TELEMETRY,
}

BUILDERS = {
    "tpch_lite": tpch_lite_pdf,
    "tpcds_lite": tpcds_lite_pdf,
    "telemetry": telemetry_pdf,
}


def build_pdf(name: str, sf: float = 0.01, seed: int | None = None) -> pd.DataFrame:
    """Build the named lite dataset at scale factor ``sf`` (deterministic)."""
    if name not in BUILDERS:
        raise KeyError(f"unknown dataset {name!r}; options: {sorted(BUILDERS)}")
    if seed is None:
        return BUILDERS[name](sf=sf)
    return BUILDERS[name](sf=sf, seed=seed)
