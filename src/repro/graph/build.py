"""Edge-list cleaning and graph construction.

The paper counts vertices *after removing zero-degree vertices* because
of their destructive effect on reordering quality (Table I caption).
:func:`build_graph` reproduces that pipeline: deduplicate edges, drop
self-loops on request, compact away zero-degree vertices, and construct
both adjacency directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import _check_edges, _pack_edges, sorted_unique
from repro.graph.graph import Graph
from repro.obs import traced

__all__ = ["BuildResult", "build_graph", "dedup_edges", "compact_vertices"]


@dataclass(frozen=True)
class BuildResult:
    """Outcome of :func:`build_graph`.

    Attributes
    ----------
    graph:
        The cleaned graph in the compacted ID space.
    old_to_new:
        Array indexed by original vertex ID; ``-1`` marks vertices that
        were removed (zero degree), otherwise the compacted ID.
    num_removed_vertices:
        Count of zero-degree vertices dropped.
    num_removed_edges:
        Count of duplicate (and, if requested, self-loop) edges dropped.
    """

    graph: Graph
    old_to_new: np.ndarray
    num_removed_vertices: int
    num_removed_edges: int


def dedup_edges(
    sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Remove duplicate directed edges; the rest come back in (source, target) order."""
    # Shape and sign checks only: the key space is sized by the largest ID.
    sources, targets = _check_edges(np.iinfo(np.int64).max, sources, targets)
    if sources.size == 0:
        return sources.copy(), targets.copy()
    n = max(int(sources.max()), int(targets.max())) + 1
    return np.divmod(sorted_unique(_pack_edges(n, sources, targets)), n)


def compact_vertices(
    num_vertices: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Renumber vertices so only those with degree > 0 remain.

    Relative order of surviving vertices is preserved.  Returns
    ``(new_n, new_sources, new_targets, old_to_new)`` where ``old_to_new``
    maps removed vertices to ``-1``.
    """
    used = np.zeros(num_vertices, dtype=bool)
    used[sources] = True
    used[targets] = True
    old_to_new = np.full(num_vertices, -1, dtype=np.int64)
    survivors = np.flatnonzero(used)
    old_to_new[survivors] = np.arange(survivors.shape[0], dtype=np.int64)
    return survivors.shape[0], old_to_new[sources], old_to_new[targets], old_to_new


@traced("graph.build")
def build_graph(
    num_vertices: int,
    sources: np.ndarray,
    targets: np.ndarray,
    *,
    name: str = "",
    dedup: bool = True,
    drop_self_loops: bool = False,
    drop_zero_degree: bool = True,
) -> BuildResult:
    """Clean an edge list and build a :class:`~repro.graph.graph.Graph`.

    Parameters mirror the preprocessing the paper applies to its datasets.
    Self-loop removal is off by default because SpMV tolerates them; RAs
    such as Rabbit-Order handle self-weights explicitly.
    """
    sources, targets = _check_edges(num_vertices, sources, targets)
    original_edge_count = sources.shape[0]
    if drop_self_loops:
        keep = sources != targets
        sources, targets = sources[keep], targets[keep]
    if dedup:
        sources, targets = dedup_edges(sources, targets)
    removed_edges = original_edge_count - sources.shape[0]

    if drop_zero_degree:
        new_n, sources, targets, old_to_new = compact_vertices(
            num_vertices, sources, targets
        )
    else:
        new_n = num_vertices
        old_to_new = np.arange(num_vertices, dtype=np.int64)

    graph = Graph.from_edges(new_n, sources, targets, name=name)
    return BuildResult(
        graph=graph,
        old_to_new=old_to_new,
        num_removed_vertices=num_vertices - new_n,
        num_removed_edges=removed_edges,
    )
