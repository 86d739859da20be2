"""Unit tests for templates and the state-machine workload generator."""
import numpy as np
import pytest

from repro.workload import datasets as ds
from repro.workload.generator import generate_workload
from repro.workload.queries import Query
from repro.workload.templates import TEMPLATES


@pytest.mark.parametrize("name", sorted(TEMPLATES))
class TestTemplates:
    def test_template_counts(self, name):
        expected = {"tpch_lite": 13, "tpcds_lite": 17, "telemetry": 9}
        assert len(TEMPLATES[name]) == expected[name]

    def test_instances_are_queries_on_known_columns(self, name):
        spec = ds.SPECS[name]
        g = np.random.default_rng(0)
        for t in TEMPLATES[name]:
            q = t.instantiate(g)
            assert isinstance(q, Query)
            assert q.template_id == t.tid
            assert q.predicates
            for c in q.columns:
                assert c in spec.all_cols, f"{t.name} filters unknown column {c}"

    def test_instances_select_nontrivially(self, name):
        """Across many instances, templates neither select ~nothing nor everything."""
        pdf = ds.build_pdf(name, sf=0.01)
        g = np.random.default_rng(1)
        for t in TEMPLATES[name]:
            sel = np.mean([t.instantiate(g).selectivity(pdf) for _ in range(10)])
            # Upper bound 0.99: TPC-H q1 legitimately scans ~98% of rows.
            assert 0.0 < sel < 0.99, f"{t.name} mean selectivity {sel}"

    def test_instances_vary(self, name):
        g = np.random.default_rng(2)
        for t in TEMPLATES[name]:
            qs = {t.instantiate(g) for _ in range(20)}
            assert len(qs) > 1, f"{t.name} never varies its constants"


class TestGenerateWorkload:
    def test_lengths_and_determinism(self):
        w1 = generate_workload("tpch_lite", n_queries=400, n_segments=10, seed=5)
        w2 = generate_workload("tpch_lite", n_queries=400, n_segments=10, seed=5)
        assert len(w1) == 400
        assert w1.queries == w2.queries
        assert w1.segment_starts == w2.segment_starts

    def test_segments_structure(self):
        w = generate_workload("tpcds_lite", n_queries=300, n_segments=12, seed=0)
        assert len(w.segment_starts) == 12
        assert w.segment_starts[0] == 0
        assert list(w.segment_starts) == sorted(w.segment_starts)
        assert len(w.segment_templates) == 12

    def test_consecutive_segments_differ(self):
        w = generate_workload("telemetry", n_queries=300, n_segments=15, seed=1)
        for a, b in zip(w.segment_templates, w.segment_templates[1:]):
            assert a != b

    def test_queries_match_segment_template(self):
        w = generate_workload("tpch_lite", n_queries=200, n_segments=8, seed=2)
        for i, q in enumerate(w.queries):
            seg = w.segment_of(i)
            assert q.template_id == w.segment_templates[seg]

    def test_segment_of_boundaries(self):
        w = generate_workload("tpch_lite", n_queries=200, n_segments=5, seed=3)
        assert w.segment_of(0) == 0
        assert w.segment_of(len(w) - 1) == 4
        for s, start in enumerate(w.segment_starts):
            assert w.segment_of(start) == s

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generate_workload("tpch_lite", n_queries=5, n_segments=10)
