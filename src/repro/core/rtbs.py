"""Reservoir-based time-biased sampling of the query stream (paper ref [21]).

The LAYOUT MANAGER evaluates layout similarity on "a reservoir-based
time-biased sampling (R-TBS) algorithm ... to curate a representative query
sample of size s over the query stream" (§V-B). We implement time-biased
reservoir sampling as weighted reservoir sampling (Efraimidis–Spirakis
A-Res) with exponentially decaying time weights: item ``i`` arriving at time
``t_i`` gets weight ``exp(lam * t_i)`` and priority ``u^(1/w)``; the
reservoir keeps the top-``size`` priorities. This yields exactly the R-TBS
property the paper relies on — biased towards recent queries while always
retaining some memory of the past — with bounded memory.

A ``lam`` of 0 degrades to uniform reservoir sampling (used as the 'RS'
candidate-generation strategy in Table II).
"""
from __future__ import annotations

import heapq
import math
from typing import Generic, Iterable, TypeVar

import numpy as np

T = TypeVar("T")


class TimeBiasedReservoir(Generic[T]):
    """Fixed-size, recency-biased sample of a stream."""

    def __init__(self, size: int, *, lam: float = 0.005, seed: int = 0) -> None:
        if size < 1:
            raise ValueError("reservoir size must be >= 1")
        self.size = size
        self.lam = float(lam)
        self._rng = np.random.default_rng(seed)
        self._heap: list[tuple[float, int, T]] = []  # (key, t, item)
        self.t = 0

    def add(self, item: T) -> None:
        """Offer one stream item; kept with probability ∝ exp(lam·t)."""
        self.extend((item,))

    def extend(self, items: Iterable[T]) -> None:
        """Offer ``items`` in order, with one draw of uniforms for all of
        them: the same stream of random numbers, and the same sample, as
        one :meth:`add` per item."""
        items = list(items)
        t0, self.t = self.t, self.t + len(items)
        # Rank by -log(-log p) of the A-Res priority p = u^(1/w), w =
        # exp(lam*t): lam*t - log(-log u), which grows with p. It calls no
        # exp, so it stays exact on long streams; log(u) * exp(-lam*t)
        # underflows to -0.0 once lam*t exceeds about 745. The logs are
        # ``math.log``'s, as ``np.log`` can differ from it in the last bit.
        new = [
            (self.lam * t - math.log(-math.log(max(u, 1e-300))), t, item)
            for t, u, item in zip(range(t0, self.t), self._rng.random(len(items)).tolist(), items)
        ]
        # Keep the top ``size`` entries by (key, t); t is unique, so items
        # are never compared.
        heap = self._heap
        for entry in new:
            if len(heap) < self.size:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)

    def sample(self) -> list[T]:
        """Current sample, oldest-first."""
        return [it for _, _, it in sorted(self._heap, key=lambda e: e[1])]

    def __len__(self) -> int:
        return len(self._heap)
