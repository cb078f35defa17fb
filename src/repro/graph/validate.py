"""Structural validation of graphs.

Used by tests and by entry points that ingest untrusted graph data.
:func:`validate_graph` verifies that the CSR and CSC views describe the
same edge set and that every library invariant holds (sorted neighbour
lists, consistent offsets).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import _pack_edges
from repro.graph.graph import Graph

__all__ = ["validate_graph", "edges_as_keys"]


def edges_as_keys(num_vertices: int, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Encode edges as sorted scalar keys ``source * n + target``.

    The encoding is collision-free for ``n < 2**31.5`` and lets edge sets
    be compared or probed with :func:`numpy.searchsorted`.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    return np.sort(_pack_edges(num_vertices, sources, targets))


def validate_graph(graph: Graph) -> None:
    """Raise :class:`GraphFormatError` unless every invariant holds.

    Checks: matching vertex/edge counts across directions, sorted
    neighbour lists in both directions, and CSR/CSC describing identical
    edge sets.
    """
    n = graph.num_vertices
    if graph.in_adj.num_vertices != n:
        raise GraphFormatError("CSR/CSC vertex counts differ")
    if graph.out_adj.num_edges != graph.in_adj.num_edges:
        raise GraphFormatError("CSR/CSC edge counts differ")
    if not graph.out_adj.has_sorted_neighbours():
        raise GraphFormatError("CSR neighbour lists are not sorted")
    if not graph.in_adj.has_sorted_neighbours():
        raise GraphFormatError("CSC neighbour lists are not sorted")

    out_src, out_dst = graph.out_adj.edges()
    in_dst, in_src = graph.in_adj.edges()  # CSC enumerates (target, source)
    forward = edges_as_keys(n, out_src, out_dst)
    backward = edges_as_keys(n, in_src, in_dst)
    if not np.array_equal(forward, backward):
        raise GraphFormatError("CSR and CSC describe different edge sets")
