"""Unit tests for the compressed adjacency structure."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import Adjacency, Graph, dedup_edges, random_permutation
from repro.graph.csr import _pack_edges, sorted_unique


def make(n, edges):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    return Adjacency.from_edges(n, src, dst)


class TestFromEdges:
    def test_basic_shape(self):
        adj = make(4, [(0, 1), (0, 2), (2, 3)])
        assert adj.num_vertices == 4
        assert adj.num_edges == 3

    def test_neighbours_sorted(self):
        adj = make(3, [(0, 2), (0, 1), (0, 0)])
        assert adj.neighbours(0).tolist() == [0, 1, 2]

    def test_empty_graph(self):
        adj = make(5, [])
        assert adj.num_edges == 0
        assert adj.degrees().tolist() == [0] * 5

    def test_zero_vertices(self):
        adj = make(0, [])
        assert adj.num_vertices == 0

    def test_rejects_out_of_range_target(self):
        with pytest.raises(GraphFormatError):
            make(2, [(0, 2)])

    def test_rejects_negative_source(self):
        with pytest.raises(GraphFormatError):
            make(2, [(-1, 0)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(GraphFormatError):
            make(-1, [])

    def test_rejects_mismatched_edge_arrays(self):
        with pytest.raises(GraphFormatError):
            Adjacency.from_edges(
                3, np.array([0, 1], dtype=np.int64), np.array([1], dtype=np.int64)
            )

    def test_duplicate_edges_kept(self):
        adj = make(2, [(0, 1), (0, 1)])
        assert adj.degree(0) == 2


class TestAccessors:
    def test_degrees(self):
        adj = make(4, [(0, 1), (0, 2), (1, 2)])
        assert adj.degrees().tolist() == [2, 1, 0, 0]

    def test_degree_out_of_range(self):
        adj = make(2, [(0, 1)])
        with pytest.raises(GraphFormatError):
            adj.degree(2)

    def test_neighbours_out_of_range(self):
        adj = make(2, [(0, 1)])
        with pytest.raises(GraphFormatError):
            adj.neighbours(-1)

    def test_edge_sources_expands_offsets(self):
        adj = make(3, [(0, 1), (0, 2), (2, 1)])
        assert adj.edge_sources().tolist() == [0, 0, 2]

    def test_edges_round_trip(self):
        edges = [(0, 3), (1, 2), (3, 0), (3, 1)]
        adj = make(4, edges)
        src, dst = adj.edges()
        assert sorted(zip(src.tolist(), dst.tolist())) == sorted(edges)

    def test_iter_neighbour_lists(self):
        adj = make(3, [(0, 1), (2, 0), (2, 1)])
        lists = [lst.tolist() for lst in adj.iter_neighbour_lists()]
        assert lists == [[1], [], [0, 1]]


class TestTranspose:
    def test_transpose_reverses_edges(self):
        adj = make(3, [(0, 1), (1, 2)])
        t = adj.transpose()
        assert t.neighbours(1).tolist() == [0]
        assert t.neighbours(2).tolist() == [1]

    def test_double_transpose_identity(self):
        adj = make(5, [(0, 1), (0, 4), (2, 3), (4, 0)])
        assert adj.transpose().transpose() == adj

    def test_transpose_preserves_counts(self):
        adj = make(4, [(0, 1), (1, 0), (2, 3)])
        t = adj.transpose()
        assert t.num_edges == adj.num_edges
        assert t.num_vertices == adj.num_vertices


class TestValidation:
    def test_offsets_must_start_at_zero(self):
        with pytest.raises(GraphFormatError):
            Adjacency(np.array([1, 2]), np.array([0, 0]))

    def test_offsets_must_be_monotone(self):
        with pytest.raises(GraphFormatError):
            Adjacency(np.array([0, 2, 1]), np.array([0]))

    def test_offsets_must_end_at_edge_count(self):
        with pytest.raises(GraphFormatError):
            Adjacency(np.array([0, 1]), np.array([0, 0]))

    def test_targets_in_range(self):
        with pytest.raises(GraphFormatError):
            Adjacency(np.array([0, 1]), np.array([5]))

    def test_has_sorted_neighbours(self):
        adj = make(3, [(0, 2), (0, 1)])
        assert adj.has_sorted_neighbours()
        raw = Adjacency(
            np.array([0, 2]), np.array([1, 0]), validate=False
        )
        assert not raw.has_sorted_neighbours()

    def test_arrays_read_only(self):
        adj = make(2, [(0, 1)])
        with pytest.raises(ValueError):
            adj.targets[0] = 0

    def test_not_hashable(self):
        adj = make(2, [(0, 1)])
        with pytest.raises(TypeError):
            hash(adj)

    def test_equality(self):
        a = make(3, [(0, 1), (1, 2)])
        b = make(3, [(1, 2), (0, 1)])
        assert a == b
        assert a != make(3, [(0, 1)])

    def test_repr(self):
        assert "n=3" in repr(make(3, [(0, 1)]))


# -- packed-key construction against the lexsort / np.unique references ------


def _lexsort_adjacency(n, sources, targets):
    """Reference: ``bincount`` offsets plus a two-key ``lexsort``."""
    degrees = np.bincount(sources, minlength=n).astype(np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    order = np.lexsort((targets, sources))
    return offsets, targets[order]


def _unique_pairs(sources, targets):
    """Reference: ``np.unique`` over stacked ``(source, target)`` rows."""
    if sources.size == 0:
        return sources.copy(), targets.copy()
    unique = np.unique(np.stack([sources, targets], axis=1), axis=0)
    return unique[:, 0], unique[:, 1]


def _assert_same_arrays(actual, expected):
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@st.composite
def edge_lists(draw):
    """Small graphs: duplicates, self-loops and isolated vertices are common."""
    n = draw(st.integers(min_value=0, max_value=24))
    num_edges = 0 if n == 0 else draw(st.integers(min_value=0, max_value=80))
    ids = st.lists(
        st.integers(min_value=0, max_value=max(n - 1, 0)),
        min_size=num_edges,
        max_size=num_edges,
    )
    return (
        n,
        np.asarray(draw(ids), dtype=np.int64),
        np.asarray(draw(ids), dtype=np.int64),
    )


_NO_EDGES = np.zeros(0, dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(edges=edge_lists(), seed=st.integers(min_value=0, max_value=2**31 - 1))
@example(edges=(0, _NO_EDGES, _NO_EDGES), seed=0)
@example(edges=(1, _NO_EDGES, _NO_EDGES), seed=0)
@example(edges=(1, np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64)), seed=0)
@example(edges=(5, _NO_EDGES, _NO_EDGES), seed=3)
def test_packed_construction_matches_references(edges, seed):
    """from_edges, dedup_edges and permuted equal the old code exactly."""
    n, src, dst = edges
    adj = Adjacency.from_edges(n, src, dst)
    _assert_same_arrays((adj.offsets, adj.targets), _lexsort_adjacency(n, src, dst))

    _assert_same_arrays(dedup_edges(src, dst), _unique_pairs(src, dst))

    graph = Graph.from_edges(n, src, dst)
    relabeling = random_permutation(n, seed=seed)
    permuted = graph.permuted(relabeling)
    old_src, old_dst = graph.edges()
    new_src, new_dst = relabeling[old_src], relabeling[old_dst]
    for got, want in (
        (permuted.out_adj, _lexsort_adjacency(n, new_src, new_dst)),
        (permuted.in_adj, _lexsort_adjacency(n, new_dst, new_src)),
    ):
        _assert_same_arrays((got.offsets, got.targets), want)


@settings(max_examples=80, deadline=None)
@given(values=st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=60))
@example(values=[])
def test_sorted_unique_matches_np_unique(values):
    values = np.asarray(values, dtype=np.int64)
    _assert_same_arrays((sorted_unique(values),), (np.unique(values),))


class TestPackedKeyBound:
    def test_vertex_count_past_bound_raises_before_allocating(self):
        """2**32 vertices would pack past int64; nothing n-sized is built."""
        one = np.zeros(1, dtype=np.int64)
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError, match="packed edge key"):
                Adjacency.from_edges(2**32, one, one)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_largest_packable_vertex_count_round_trips(self):
        n = 3_037_000_499  # floor(sqrt(2**63 - 1))
        last = np.array([n - 1], dtype=np.int64)
        keys = _pack_edges(n, last, last)
        assert keys.tolist() == [n * n - 1]
        assert [a.tolist() for a in np.divmod(keys, n)] == [[n - 1], [n - 1]]
        with pytest.raises(GraphFormatError, match="packed edge key"):
            _pack_edges(n + 1, last, last)

    def test_graph_from_edges_checks_bound(self):
        one = np.zeros(1, dtype=np.int64)
        with pytest.raises(GraphFormatError, match="packed edge key"):
            Graph.from_edges(2**32, one, one)

    def test_dedup_rejects_ids_past_bound(self):
        with pytest.raises(GraphFormatError, match="packed edge key"):
            dedup_edges(np.array([0]), np.array([2**32]))

    @pytest.mark.parametrize(
        "sources, targets", [([-1, 0], [0, 1]), ([0, 1], [1, -3]), ([0, 1], [1])]
    )
    def test_dedup_rejects_negative_ids_and_unpaired_arrays(self, sources, targets):
        with pytest.raises(GraphFormatError):
            dedup_edges(np.array(sources), np.array(targets))
