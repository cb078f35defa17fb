"""Sampled effective diameter (the size axis of the scaling-curve study).

The diameter-dependence analysis of arXiv 2111.12281 argues that which
reordering wins depends on graph diameter as well as size: low-diameter
(social) graphs keep hub reuse in cache regardless of layout, while
higher-diameter (web/mesh-like) graphs reward layouts that shorten
neighbour ID distances.  The scaling-curve experiment therefore records
each graph's *effective diameter* next to its miss rate.

The effective diameter at percentile ``q`` is the smallest hop count
``d`` (linearly interpolated between integer levels, as in SNAP) such
that at least a fraction ``q`` of reachable source/target pairs lie
within ``d`` hops.  Exact all-pairs BFS is O(n·m); like the reference
tools we estimate from a fixed sample of BFS sources, which is accurate
to well under one hop for the graph families used here.

Each BFS is frontier-vectorized: one gather per level expands the whole
frontier's neighbour lists with ``np.repeat``/``cumsum`` index
arithmetic, so Python-level work is O(diameter), not O(edges).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import Adjacency, sorted_unique
from repro.graph.graph import Graph

__all__ = ["bfs_distances", "bfs_level_histogram", "effective_diameter"]


def bfs_distances(adj: Adjacency, source: int) -> np.ndarray:
    """Hop count from ``source`` to every vertex; ``-1`` marks unreachable."""
    n = adj.num_vertices
    if not 0 <= source < n:
        raise GraphFormatError(f"source {source} out of range [0, {n})")
    offsets, targets = adj.offsets, adj.targets
    levels = np.full(n, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        starts = offsets[frontier]
        degs = offsets[frontier + 1] - starts
        cum = np.cumsum(degs)
        # Gather all frontier adjacency slices in one indexed read.
        gather = np.arange(cum[-1], dtype=np.int64) + np.repeat(starts - cum + degs, degs)
        reached = targets[gather]
        frontier = sorted_unique(reached[levels[reached] < 0])
        levels[frontier] = level
    return levels


def bfs_level_histogram(adj: Adjacency, source: int) -> np.ndarray:
    """Vertices first reached at each BFS level from ``source``.

    ``result[d]`` counts vertices at distance exactly ``d`` (so
    ``result[0] == 1``); unreachable vertices are absent.
    """
    levels = bfs_distances(adj, source)
    return np.bincount(levels[levels >= 0]).astype(np.int64)


def effective_diameter(
    graph: Graph,
    *,
    percentile: float = 0.9,
    num_sources: int = 16,
    seed: int = 0,
    direction: str = "out",
) -> float:
    """Sampled, interpolated effective diameter of ``graph``.

    Pools the per-level reach histograms of ``num_sources`` uniformly
    sampled BFS roots and returns the (fractional) level where the
    cumulative pair count crosses ``percentile`` of all reachable pairs.
    Deterministic for a given ``seed``.
    """
    if not 0 < percentile < 1:
        raise GraphFormatError(f"percentile must be in (0, 1), got {percentile}")
    if num_sources <= 0:
        raise GraphFormatError(f"num_sources must be positive, got {num_sources}")
    if direction == "out":
        adj = graph.out_adj
    elif direction == "in":
        adj = graph.in_adj
    else:
        raise GraphFormatError(f"direction must be 'in' or 'out', got {direction!r}")
    n = adj.num_vertices
    if n == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    sources = rng.choice(n, size=min(num_sources, n), replace=False)

    pooled = np.zeros(n, dtype=np.int64)  # no BFS has more than n levels
    for s in sources.tolist():
        hist = bfs_level_histogram(adj, int(s))
        pooled[: hist.shape[0]] += hist
    # Drop the level-0 self-pairs: the metric is over *distinct* pairs.
    pooled[0] = 0
    total = int(pooled.sum())
    if total == 0:
        return 0.0
    cumulative = np.cumsum(pooled)
    threshold = percentile * total
    d = int(np.searchsorted(cumulative, threshold, side="left"))
    below = int(cumulative[d - 1]) if d > 0 else 0
    at = int(pooled[d])
    if at == 0:
        return float(d)
    return float(d - 1 + (threshold - below) / at) if d > 0 else float(d)
