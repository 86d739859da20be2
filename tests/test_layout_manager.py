"""Unit tests for candidate generation and ε-admission (Algorithm 5)."""
import numpy as np
import pytest

from repro.core.layout_manager import CandidateGenerator, LayoutManager, StateEvent
from repro.core.oreo import default_layout
from repro.workload import datasets as ds
from repro.workload.generator import generate_workload


@pytest.fixture(scope="module")
def pdf():
    return ds.tpch_lite_pdf(sf=0.005, seed=31)


@pytest.fixture(scope="module")
def workload():
    return generate_workload("tpch_lite", n_queries=600, n_segments=6, seed=37)


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


class TestLayoutManager:
    def _manager(self, pdf, workload, **kw):
        gen = make_gen(pdf)
        init = default_layout(pdf, ds.TPCH_LITE, 8)
        args = dict(epsilon=0.08, eval_sample_size=30, max_states=5, seed=0)
        args.update(kw)
        return LayoutManager(gen, init, workload.queries, **args), init

    def test_distance_metric(self):
        a, b = np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.5, 0.5])
        assert LayoutManager.distance(a, b) == pytest.approx(1.0 / 3)
        assert LayoutManager.distance(a, a) == 0.0
        assert LayoutManager.distance(np.array([]), np.array([])) == 1.0

    def test_epsilon_one_admits_nothing(self, pdf, workload):
        man, init = self._manager(pdf, workload, epsilon=1.0)
        for t in range(300):
            man.step(t, init.name)
        assert man.space == [init.name]
        assert man.n_generated > 0 and man.n_admitted == 0

    def test_epsilon_zero_admits_everything(self, pdf, workload):
        man, init = self._manager(pdf, workload, epsilon=0.0, max_states=100)
        for t in range(300):
            man.step(t, init.name)
        assert man.n_admitted == man.n_generated > 0

    def test_admission_events_are_adds(self, pdf, workload):
        man, init = self._manager(pdf, workload, epsilon=0.0, max_states=100)
        evs = []
        for t in range(200):
            evs.extend(man.step(t, init.name))
        assert evs and all(e.kind == "add" and e.name in man.columns for e in evs)

    def test_max_states_prunes_but_spares_current(self, pdf, workload):
        man, init = self._manager(pdf, workload, epsilon=0.0, max_states=3)
        removed = []
        for t in range(400):
            for e in man.step(t, init.name):
                if e.kind == "remove":
                    removed.append(e.name)
        assert len(man.space) <= 3
        assert init.name in man.space  # the current state is never pruned
        assert init.name not in removed

    def test_catalog_keeps_pruned_layouts(self, pdf, workload):
        man, init = self._manager(pdf, workload, epsilon=0.0, max_states=2)
        for t in range(400):
            man.step(t, init.name)
        # The cost columns only grow; the space is bounded.
        assert len(man.columns) == man.n_admitted + 1
        assert len(man.space) <= 2

    def test_higher_epsilon_admits_fewer(self, pdf, workload):
        admitted = {}
        for eps in (0.02, 0.3):
            man, init = self._manager(pdf, workload, epsilon=eps, max_states=100)
            for t in range(400):
                man.step(t, init.name)
            admitted[eps] = man.n_admitted
        assert admitted[0.3] <= admitted[0.02]

    def test_rejects_bad_epsilon(self, pdf, workload):
        with pytest.raises(ValueError):
            self._manager(pdf, workload, epsilon=1.5)
