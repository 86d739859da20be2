"""Unit tests for reservoir-based time-biased sampling (repro.core.rtbs)."""
import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rtbs import TimeBiasedReservoir


def reference_sample(n: int, *, size: int, lam: float, seed: int):
    """One heap step per item, as the reservoir sampled before it was
    batched: the sample of ``range(n)`` and the generator's final state."""
    rng = np.random.default_rng(seed)
    heap = []
    for t in range(n):
        u = float(rng.random())
        entry = (lam * t - math.log(-math.log(max(u, 1e-300))), t)
        if len(heap) < size:
            heapq.heappush(heap, entry)
        elif entry[0] > heap[0][0]:
            heapq.heapreplace(heap, entry)
    return sorted(t for _, t in heap), rng.bit_generator.state


class TestTimeBiasedReservoir:
    def test_size_bound(self):
        r = TimeBiasedReservoir(size=10, seed=0)
        r.extend(range(1000))
        assert len(r) == 10
        assert len(r.sample()) == 10

    def test_under_capacity_keeps_everything(self):
        r = TimeBiasedReservoir(size=50, seed=0)
        r.extend(range(20))
        assert sorted(r.sample()) == list(range(20))

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            TimeBiasedReservoir(size=0)

    def test_sample_is_time_ordered(self):
        r = TimeBiasedReservoir(size=25, lam=0.01, seed=1)
        r.extend(range(500))
        s = r.sample()
        assert s == sorted(s)

    def test_recency_bias(self):
        """With lam > 0, the sample skews toward recent stream positions."""
        means = []
        for seed in range(10):
            r = TimeBiasedReservoir(size=40, lam=0.01, seed=seed)
            r.extend(range(2000))
            means.append(np.mean(r.sample()))
        assert np.mean(means) > 1400  # uniform would give ~1000

    def test_keeps_some_memory_of_past(self):
        """R-TBS property: unlike a sliding window, old items survive."""
        old = 0
        for seed in range(10):
            r = TimeBiasedReservoir(size=40, lam=0.002, seed=seed)
            r.extend(range(2000))
            old += sum(1 for x in r.sample() if x < 1000)
        assert old > 0

    def test_lam_zero_is_roughly_uniform(self):
        means = []
        for seed in range(20):
            r = TimeBiasedReservoir(size=40, lam=0.0, seed=seed)
            r.extend(range(2000))
            means.append(np.mean(r.sample()))
        assert 800 < np.mean(means) < 1200

    def test_deterministic_in_seed(self):
        a = TimeBiasedReservoir(size=10, lam=0.01, seed=5)
        b = TimeBiasedReservoir(size=10, lam=0.01, seed=5)
        a.extend(range(300))
        b.extend(range(300))
        assert a.sample() == b.sample()

    def test_long_stream_keeps_admitting(self):
        """Priorities stay exact on long streams: at the layout manager's
        λ = 0.01, the sample after 120K adds reaches the last 1K positions."""
        r = TimeBiasedReservoir(size=50, lam=0.01, seed=2)
        r.extend(range(120_000))
        assert max(r.sample()) >= 119_000

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(0, 700),
        size=st.sampled_from([1, 5, 50]),
        lam=st.sampled_from([0.0, 0.01]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_any_chunking_is_one_add_per_item(self, n, size, lam, seed, data):
        """``extend`` in random chunks, and ``add`` item by item, keep the
        sample of the one-heap-step-per-item reference and leave the
        generator in its state."""
        cuts = sorted(data.draw(st.sets(st.integers(0, n), max_size=8)))
        chunked = TimeBiasedReservoir(size=size, lam=lam, seed=seed)
        for a, b in zip([0] + cuts, cuts + [n]):
            chunked.extend(range(a, b))
        single = TimeBiasedReservoir(size=size, lam=lam, seed=seed)
        for t in range(n):
            single.add(t)
        want, state = reference_sample(n, size=size, lam=lam, seed=seed)
        for r in (chunked, single):
            assert r.sample() == want
            assert r._rng.bit_generator.state == state
            assert r.t == n
