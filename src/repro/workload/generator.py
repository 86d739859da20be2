"""State-machine workload generator (§VI-A2).

The paper's workload generator "behaves like a state machine and samples
queries from one query template for an arbitrary amount of time before
switching to another random query template", producing 30,000 queries over
20 template segments. We reproduce that: ``n_segments`` segments, each
assigned a template drawn uniformly at random (consecutive segments always
differ so every boundary is a real drift event), with jittered segment
lengths summing to ``n_queries``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.workload.queries import CompiledQueries, Query, compile_queries
from repro.workload.templates import TEMPLATES


@dataclass(frozen=True)
class Workload:
    """A generated query stream plus its segment structure."""

    queries: tuple[Query, ...]
    # Index of the first query of each segment (ascending; starts with 0).
    segment_starts: tuple[int, ...]
    # Template id of each segment, parallel to segment_starts.
    segment_templates: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.queries)

    @cached_property
    def compiled(self) -> CompiledQueries:
        """The query stream compiled once, for every method run on it."""
        return compile_queries(self.queries)

    def segment_of(self, qidx: int) -> int:
        """Segment index containing query ``qidx``."""
        return int(np.searchsorted(self.segment_starts, qidx, side="right") - 1)


def generate_workload(
    dataset: str,
    *,
    n_queries: int = 2_000,
    n_segments: int = 20,
    seed: int = 0,
) -> Workload:
    """Generate a template-segmented query stream from the templates of
    ``dataset`` (``TEMPLATES[dataset]``, whose ids are their positions).
    Deterministic in ``seed``.
    """
    templates = TEMPLATES[dataset]
    if n_segments < 1 or n_queries < n_segments:
        raise ValueError("need n_queries >= n_segments >= 1")
    g = np.random.default_rng(seed)

    # Jittered segment lengths: Dirichlet-ish via normalized positive draws,
    # floored at 1 query per segment.
    raw = g.random(n_segments) + 0.3
    lengths = np.maximum(1, np.round(raw / raw.sum() * n_queries)).astype(int)
    # Fix rounding drift so lengths sum exactly to n_queries.
    drift = n_queries - int(lengths.sum())
    lengths[np.argmax(lengths)] += drift
    if lengths.min() < 1:
        raise ValueError("segment length underflow; lower n_segments")

    tids = np.empty(n_segments, dtype=int)
    prev = -1
    for i in range(n_segments):
        choices = [t.tid for t in templates if t.tid != prev]
        tids[i] = int(g.choice(choices))
        prev = tids[i]

    queries: list[Query] = []
    starts: list[int] = []
    for tid, ln in zip(tids, lengths):
        starts.append(len(queries))
        tmpl = templates[tid]
        queries.extend(tmpl.instantiate(g) for _ in range(int(ln)))

    return Workload(
        queries=tuple(queries),
        segment_starts=tuple(starts),
        segment_templates=tuple(int(t) for t in tids),
    )
