"""Frontier-based graph analytics built on the traversal substrate.

Section II-B of the paper argues SpMV is representative of frontier
analytics (BFS, CC, SSSP) because their *dense phases* — iterations
touching most edges — dominate execution time.  This module provides
those analytics plus :func:`frontier_profile`, which measures exactly
that: the fraction of all edges each iteration touches, letting the
dense-phase claim be checked on any graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.graph.diameter import bfs_distances
from repro.graph.graph import Graph

__all__ = [
    "bfs_levels",
    "sssp_distances",
    "FrontierProfile",
    "frontier_profile",
]


def bfs_levels(graph: Graph, source: int) -> np.ndarray:
    """BFS levels over out-edges; ``-1`` marks unreachable vertices."""
    _check_source(graph, source)
    return bfs_distances(graph.out_adj, source)


def sssp_distances(
    graph: Graph,
    source: int,
    weights: np.ndarray | None = None,
    *,
    max_rounds: int | None = None,
) -> np.ndarray:
    """Single-source shortest paths by vectorized Bellman-Ford.

    Each round performs the pull-direction relaxation
    ``dist[v] = min(dist[v], min over in-edges (u, v) of dist[u] + w)``
    — structurally the min-plus analogue of the SpMV kernel.  ``inf``
    marks unreachable vertices.
    """
    n = _check_source(graph, source)
    src, dst = graph.edges()
    if weights is None:
        weights = np.ones(src.shape[0], dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != src.shape:
            raise SimulationError(
                f"weights must have one entry per edge ({src.shape[0]})"
            )
        if weights.size and weights.min() < 0:
            raise SimulationError("negative edge weights are not supported")
    if max_rounds is None:
        max_rounds = n

    distances = np.full(n, np.inf, dtype=np.float64)
    distances[source] = 0.0
    for _ in range(max_rounds):
        candidate = distances[src] + weights
        updated = distances.copy()
        np.minimum.at(updated, dst, candidate)
        if np.array_equal(
            updated, distances, equal_nan=False
        ) or np.allclose(updated, distances, equal_nan=True):
            break
        distances = updated
    return distances


@dataclass(frozen=True)
class FrontierProfile:
    """Per-BFS-level edge activity of a traversal from one source."""

    levels: np.ndarray
    frontier_sizes: np.ndarray
    edges_touched: np.ndarray
    total_edges: int

    @property
    def num_levels(self) -> int:
        return self.frontier_sizes.shape[0]

    def dense_phase_share(self, threshold: float = 0.10) -> float:
        """Fraction of all touched edges inside 'dense' iterations.

        An iteration is dense when it touches more than ``threshold`` of
        the graph's edges — the paper's argument is that these phases
        dominate, making SpMV a faithful proxy.
        """
        touched = self.edges_touched.sum()
        if touched == 0:
            return 0.0
        dense = self.edges_touched[
            self.edges_touched > threshold * self.total_edges
        ].sum()
        return float(dense / touched)


def frontier_profile(graph: Graph, source: int) -> FrontierProfile:
    """Measure per-level frontier sizes and edge activity of a BFS."""
    levels = bfs_levels(graph, source)
    out_deg = graph.out_degrees()
    reachable = levels >= 0
    if not reachable.any():
        return FrontierProfile(
            levels=levels,
            frontier_sizes=np.zeros(0, dtype=np.int64),
            edges_touched=np.zeros(0, dtype=np.int64),
            total_edges=graph.num_edges,
        )
    num_levels = int(levels[reachable].max()) + 1
    frontier_sizes = np.bincount(levels[reachable], minlength=num_levels)
    edges_touched = np.bincount(
        levels[reachable], weights=out_deg[reachable], minlength=num_levels
    ).astype(np.int64)
    return FrontierProfile(
        levels=levels,
        frontier_sizes=frontier_sizes.astype(np.int64),
        edges_touched=edges_touched,
        total_edges=graph.num_edges,
    )


def _check_source(graph: Graph, source: int) -> int:
    n = graph.num_vertices
    if not 0 <= source < n:
        raise SimulationError(f"source {source} outside [0, {n})")
    return n
