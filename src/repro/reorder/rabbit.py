"""Rabbit-Order (Arai et al., IPDPS'16; Sections IV-B and VI-C).

Rabbit-Order builds communities bottom-up: visiting vertices in
increasing-degree order, each vertex merges into the neighbour with the
maximum modularity gain

    dQ(u, v) = 2 * ( w_uv / (2m)  -  deg_u * deg_v / (2m)^2 )

(merging stops when no neighbour has positive gain; such vertices seed
the *top-level set*).  A second phase assigns new IDs by DFS over each
merge tree, so the members of one community receive consecutive IDs —
the mechanism that reduces the AID of low-degree vertices (Figure 3).

The reference implementation is non-deterministic across runs (the
paper observed +-5 % variation); this implementation is deterministic
for a given ``seed``, which perturbs the visiting order among
equal-degree vertices.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReorderingError
from repro.graph.graph import Graph
from repro.graph.permute import sort_order_to_relabeling
from repro.obs import span

from repro.reorder.base import ReorderingAlgorithm

__all__ = ["RabbitOrder"]


class RabbitOrder(ReorderingAlgorithm):
    """Community-by-merging ordering with DFS ID assignment.

    Parameters
    ----------
    seed:
        Seeds the tie-breaking among equal-degree vertices, reproducing
        (deterministically) the run-to-run variation of the reference
        implementation.
    max_community_weight:
        Optional cap on the weighted degree of a merged community —
        the cache-aware improvement suggested in Section VIII-C ("RO can
        use cache size as an indicator of the maximum number of vertices
        in a community").  ``None`` (default) reproduces plain RO.
    """

    name = "rabbit"

    def __init__(self, seed: int = 0, *, max_community_weight: float | None = None):
        self.seed = seed
        if max_community_weight is not None and max_community_weight <= 0:
            raise ReorderingError("max_community_weight must be positive")
        self.max_community_weight = max_community_weight

    def compute(self, graph: Graph, details: dict) -> np.ndarray:
        n = graph.num_vertices
        if graph.num_edges == 0:
            return np.arange(n, dtype=np.int64)

        # Undirected weighted adjacency (directions merged, weight = edge
        # multiplicity); self-loops count twice in a vertex's strength.
        with span("reorder.rabbit.adjacency"):
            adjacency, strength = _undirected_adjacency(graph)

        # Visit in increasing-degree order, seed-perturbed tie-breaks.
        rng = np.random.default_rng(self.seed)
        tie_break = rng.permutation(n)
        visit_order = np.lexsort((tie_break, graph.total_degrees()))

        with span("reorder.rabbit.merge") as merge_span:
            children, top_level, num_merges = _merge(
                adjacency,
                strength,
                visit_order.tolist(),
                float(graph.num_edges),
                self.max_community_weight,
            )
            merge_span.set(merges=num_merges)

        with span("reorder.rabbit.dfs"):
            order = _dfs_order(n, children, top_level)
        details["num_top_level"] = len(top_level)
        details["num_merges"] = num_merges
        return sort_order_to_relabeling(order)


def _merge(
    adjacency: list[dict[int, int]],
    strength: list[int],
    visit_order: list[int],
    total_weight: float,
    cap: float | None,
) -> tuple[list[list[int]], list[int], int]:
    """Merge each visited vertex into its best-gain neighbour.

    Returns the merge trees (children per vertex), the top-level roots
    in visit order and the number of merges.  ``adjacency`` and
    ``strength`` are consumed.

    Everything the loop touches per step is a Python list, dict or int
    (no numpy scalars): integer weights stay exact, so ``w / two_m`` is
    the same double as with float weights, and dict insertion order —
    which decides gain ties — is the order edges are first met.  The
    loops live in short functions on purpose: ``tracemalloc`` (Table
    II's memory column) resolves the line number of every allocation by
    scanning the allocating code object's line table, so a traced
    allocation deep in a long function costs several times one in a
    short one.
    """
    n = len(adjacency)
    two_m = 2.0 * total_weight  # 2m in the gain formula
    parent = list(range(n))
    children: list[list[int]] = [[] for _ in range(n)]
    top_level: list[int] = []

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    num_merges = 0
    for v in visit_order:
        if find(v) != v:
            continue  # already absorbed into another community
        # Resolve v's adjacency through the union-find, dropping edges
        # that became internal (strength already counts them).
        resolved: dict[int, int] = {}
        for u, w in adjacency[v].items():
            root = find(u)
            if root != v:
                resolved[root] = resolved.get(root, 0) + w
        adjacency[v] = resolved
        best = _best_neighbour(resolved, strength, strength[v], two_m, cap)
        if best is None:
            top_level.append(v)
            continue
        # Merge v into best: the union-find makes edges pointing at v
        # resolve to best lazily; adjacency dicts are combined here.
        parent[v] = best
        children[best].append(v)
        num_merges += 1
        target = adjacency[best]
        for u, w in resolved.items():
            if u != best:
                target[u] = target.get(u, 0) + w
        target.pop(v, None)
        strength[best] += strength[v]
        adjacency[v] = {}
    return children, top_level, num_merges


def _best_neighbour(
    resolved: dict[int, int],
    strength: list[int],
    deg_v: int,
    two_m: float,
    cap: float | None,
) -> int | None:
    """First neighbour with the largest positive modularity gain."""
    best_gain = 0.0
    best: int | None = None
    for u, w in resolved.items():
        if cap is not None and strength[u] + deg_v > cap:
            continue
        gain = 2.0 * (w / two_m - (strength[u] * deg_v) / (two_m * two_m))
        if gain > best_gain:
            best_gain = gain
            best = u
    return best


def _undirected_adjacency(graph: Graph) -> tuple[list[dict[int, int]], list[int]]:
    """Per-vertex neighbour multiplicity dicts and strengths (undirected)."""
    n = graph.num_vertices
    src, dst = graph.edges()
    adjacency: list[dict[int, int]] = [dict() for _ in range(n)]
    strength = [0] * n
    for u, v in zip(src.tolist(), dst.tolist()):
        if u == v:
            strength[u] += 2  # a self-loop counts twice in strength
            continue
        adjacency[u][v] = adjacency[u].get(v, 0) + 1
        adjacency[v][u] = adjacency[v].get(u, 0) + 1
    for v, neighbours in enumerate(adjacency):
        strength[v] += sum(neighbours.values())
    return adjacency, strength


def _dfs_order(n: int, children: list[list[int]], top_level: list[int]) -> np.ndarray:
    """Pre-order DFS over every merge tree, top-level roots first."""
    order = np.empty(n, dtype=np.int64)
    cursor = 0
    visited = np.zeros(n, dtype=bool)
    for root in top_level:
        if visited[root]:
            continue
        stack = [root]
        while stack:
            v = stack.pop()
            if visited[v]:
                continue
            visited[v] = True
            order[cursor] = v
            cursor += 1
            # Reversed so the earliest-merged child is visited first.
            stack.extend(reversed(children[v]))
    # Isolated or unreached vertices (none in a cleaned graph, but kept
    # for safety) are appended in ID order.
    if cursor < n:
        rest = np.flatnonzero(~visited)
        order[cursor : cursor + rest.shape[0]] = rest
        cursor += rest.shape[0]
    if cursor != n:
        raise ReorderingError("DFS did not reach every vertex exactly once")
    return order
