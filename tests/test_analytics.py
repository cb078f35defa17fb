"""Unit tests for the frontier analytics (BFS, SSSP, frontier profile)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.graph import (
    Graph,
    apply_to_vertex_data,
    bfs_level_histogram,
    effective_diameter,
    random_permutation,
)
from repro.sim import bfs_levels, frontier_profile, sssp_distances


def graph_of(n, edges):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    return Graph.from_edges(n, src, dst)


class TestBFS:
    def test_path_levels(self):
        g = graph_of(4, [(0, 1), (1, 2), (2, 3)])
        assert bfs_levels(g, 0).tolist() == [0, 1, 2, 3]

    def test_unreachable_marked(self):
        g = graph_of(4, [(0, 1), (2, 3)])
        levels = bfs_levels(g, 0)
        assert levels[2] == -1
        assert levels[3] == -1

    def test_direction_respected(self):
        g = graph_of(2, [(1, 0)])
        assert bfs_levels(g, 0).tolist() == [0, -1]

    def test_ring_levels(self, ring_graph):
        levels = bfs_levels(ring_graph, 0)
        assert levels.tolist() == list(range(12))

    def test_source_validation(self, ring_graph):
        with pytest.raises(SimulationError):
            bfs_levels(ring_graph, 99)

    def test_invariant_under_relabeling(self, small_web):
        perm = random_permutation(small_web.num_vertices, seed=2)
        relabeled = small_web.permuted(perm)
        source = 17
        original = bfs_levels(small_web, source)
        moved = bfs_levels(relabeled, int(perm[source]))
        assert np.array_equal(apply_to_vertex_data(perm, original), moved)


class TestSSSP:
    def test_unit_weights_match_bfs(self, small_web):
        source = 3
        levels = bfs_levels(small_web, source)
        distances = sssp_distances(small_web, source)
        reachable = levels >= 0
        assert np.array_equal(distances[reachable], levels[reachable])
        assert np.isinf(distances[~reachable]).all()

    def test_weighted_shortest_path(self):
        # 0 -> 1 -> 2 is cheaper than the direct 0 -> 2
        g = graph_of(3, [(0, 1), (1, 2), (0, 2)])
        src, dst = g.edges()
        weights = np.where((src == 0) & (dst == 2), 10.0, 1.0)
        distances = sssp_distances(g, 0, weights)
        assert distances.tolist() == [0.0, 1.0, 2.0]

    def test_rejects_negative_weights(self, ring_graph):
        weights = -np.ones(ring_graph.num_edges)
        with pytest.raises(SimulationError):
            sssp_distances(ring_graph, 0, weights)

    def test_rejects_wrong_weight_shape(self, ring_graph):
        with pytest.raises(SimulationError):
            sssp_distances(ring_graph, 0, np.ones(3))

    def test_max_rounds_truncates(self, ring_graph):
        distances = sssp_distances(ring_graph, 0, max_rounds=3)
        assert distances[3] == 3.0
        assert np.isinf(distances[8])


class TestFrontierProfile:
    def test_dense_phase_dominates_on_web(self, small_web):
        hub = int(np.argmax(small_web.out_degrees()))
        profile = frontier_profile(small_web, hub)
        assert profile.num_levels >= 2
        # the paper's premise: most touched edges sit in dense phases
        assert profile.dense_phase_share(threshold=0.05) > 0.5

    def test_frontier_sizes_sum_to_reachable(self, small_web):
        profile = frontier_profile(small_web, 0)
        assert profile.frontier_sizes.sum() == (profile.levels >= 0).sum()

    def test_isolated_source(self):
        g = graph_of(3, [(1, 2)])
        profile = frontier_profile(g, 0)
        assert profile.num_levels == 1
        assert profile.frontier_sizes.tolist() == [1]

    def test_ring_has_no_dense_phase(self, ring_graph):
        profile = frontier_profile(ring_graph, 0)
        assert profile.dense_phase_share(threshold=0.5) == 0.0


def _loop_bfs_levels(graph, source):
    """Reference: per-vertex neighbour slices and ``np.unique`` per level."""
    levels = np.full(graph.num_vertices, -1, dtype=np.int64)
    levels[source] = 0
    frontier, level = [source], 0
    while frontier:
        level += 1
        neighbours = np.concatenate(
            [graph.out_adj.neighbours(v) for v in frontier] + [np.zeros(0, dtype=np.int64)]
        )
        fresh = np.unique(neighbours[levels[neighbours] < 0])
        levels[fresh] = level
        frontier = fresh.tolist()
    return levels


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    num_edges=st.integers(min_value=0, max_value=70),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_vectorized_bfs_matches_loop(n, num_edges, seed):
    """bfs_levels and the diameter histogram equal the per-vertex loop."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, num_edges, dtype=np.int64)
    dst = rng.integers(0, n, num_edges, dtype=np.int64)
    graph = Graph.from_edges(n, src, dst)
    source = int(rng.integers(0, n))
    expected = _loop_bfs_levels(graph, source)
    levels = bfs_levels(graph, source)
    assert levels.dtype == expected.dtype
    assert np.array_equal(levels, expected)
    histogram = bfs_level_histogram(graph.out_adj, source)
    assert histogram.dtype == np.int64
    assert histogram.tolist() == np.bincount(expected[expected >= 0]).tolist()

    # Effective diameter: pool the reference histograms of the same
    # sampled roots and interpolate as SNAP does.
    num_sources, percentile = 4, 0.9
    roots = np.random.default_rng(seed).choice(n, size=min(num_sources, n), replace=False)
    pooled = np.zeros(n, dtype=np.int64)
    for root in roots.tolist():
        levels = _loop_bfs_levels(graph, root)
        pooled += np.bincount(levels[levels > 0], minlength=n)
    total = int(pooled.sum())
    want = 0.0
    if total:
        cumulative = np.cumsum(pooled)
        threshold = percentile * total
        d = int(np.searchsorted(cumulative, threshold))
        below = int(cumulative[d - 1]) if d else 0
        want = d - 1 + (threshold - below) / int(pooled[d]) if d else 0.0
    got = effective_diameter(graph, percentile=percentile, num_sources=num_sources, seed=seed)
    assert got == want
