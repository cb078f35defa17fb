"""Compressed sparse adjacency structure.

The paper (Section II-A) represents graph topology in Compressed Sparse
Rows (CSR, out-neighbours) and Compressed Sparse Columns (CSC,
in-neighbours).  Both are the same data structure — an ``offsets`` array
of ``n + 1`` elements and a flat ``targets`` array of ``m`` elements —
differing only in which endpoint of each edge they enumerate.
:class:`Adjacency` implements that shared structure; :class:`repro.graph.graph.Graph`
pairs one instance per direction.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import GraphFormatError

__all__ = ["Adjacency", "sorted_unique"]

#: Largest ``n`` whose packed edge keys (at most ``n**2 - 1``) fit int64.
_MAX_PACKED_VERTICES = 3_037_000_499  # math.isqrt(2**63 - 1)


class Adjacency:
    """Immutable compressed adjacency (one direction of a directed graph).

    Parameters
    ----------
    offsets:
        ``int64`` array of ``n + 1`` non-decreasing indices into ``targets``.
        ``targets[offsets[v]:offsets[v + 1]]`` are the neighbours of ``v``.
    targets:
        ``int64`` array of neighbour vertex IDs, each in ``[0, n)``.
    validate:
        When true (default), structural invariants are checked eagerly.

    Neighbour lists are stored in ascending ID order by all constructors
    in this library; :meth:`from_edges` sorts them.  Sortedness is what
    makes the N2N AID metric (Equation 1 of the paper) well defined.
    """

    __slots__ = ("offsets", "targets")

    def __init__(
        self, offsets: np.ndarray, targets: np.ndarray, *, validate: bool = True
    ) -> None:
        offsets = np.asarray(offsets, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if validate:
            _validate_structure(offsets, targets)
        self.offsets = offsets
        self.targets = targets
        self.offsets.setflags(write=False)
        self.targets.setflags(write=False)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_edges(
        cls, num_vertices: int, sources: np.ndarray, targets: np.ndarray
    ) -> "Adjacency":
        """Build adjacency over ``sources[i] -> targets[i]`` edges.

        The result enumerates, for each source vertex, its target
        neighbours.  To obtain the reverse direction, swap the two edge
        arrays at the call site.
        """
        sources, targets = _check_edges(num_vertices, sources, targets)
        return cls._from_checked_edges(num_vertices, sources, targets)

    @classmethod
    def _from_checked_edges(
        cls, num_vertices: int, sources: np.ndarray, targets: np.ndarray
    ) -> "Adjacency":
        """:meth:`from_edges` for ``int64`` edges already inside ``[0, n)``."""
        keys = _pack_edges(num_vertices, sources, targets)
        keys.sort()
        keys %= num_vertices  # decode the neighbour IDs in place
        offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=num_vertices), out=offsets[1:])
        return cls(offsets, keys, validate=False)

    # -- basic shape ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self.offsets.shape[0] - 1

    @property
    def num_edges(self) -> int:
        """Number of stored edges ``m``."""
        return self.targets.shape[0]

    def degrees(self) -> np.ndarray:
        """Degree of every vertex in this direction (``int64``, length n)."""
        return np.diff(self.offsets)

    def degree(self, vertex: int) -> int:
        """Degree of one vertex."""
        self._check_vertex(vertex)
        return int(self.offsets[vertex + 1] - self.offsets[vertex])

    def neighbours(self, vertex: int) -> np.ndarray:
        """Read-only neighbour array of ``vertex`` (ascending IDs)."""
        self._check_vertex(vertex)
        return self.targets[self.offsets[vertex] : self.offsets[vertex + 1]]

    def iter_neighbour_lists(self) -> Iterator[np.ndarray]:
        """Yield every vertex's neighbour array in vertex-ID order."""
        offsets = self.offsets
        targets = self.targets
        for v in range(self.num_vertices):
            yield targets[offsets[v] : offsets[v + 1]]

    def edge_sources(self) -> np.ndarray:
        """Expand offsets back to a per-edge source-vertex array."""
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees())

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(sources, targets)`` edge arrays in storage order."""
        return self.edge_sources(), self.targets.copy()

    def transpose(self) -> "Adjacency":
        """Reverse every edge (CSR <-> CSC)."""
        return Adjacency.from_edges(self.num_vertices, self.targets, self.edge_sources())

    def has_sorted_neighbours(self) -> bool:
        """True when every neighbour list is in ascending order."""
        keys = _pack_edges(self.num_vertices, self.edge_sources(), self.targets)
        return bool(np.all(keys[1:] >= keys[:-1]))

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Adjacency):
            return NotImplemented
        return np.array_equal(self.offsets, other.offsets) and np.array_equal(
            self.targets, other.targets
        )

    def __hash__(self) -> int:  # pragma: no cover - explicit unhashability
        # TypeError is what the hashing protocol mandates for unhashable
        # types, so this raise is exempt from the ReproError hierarchy.
        raise TypeError("Adjacency is not hashable")  # repro-lint: disable=RL004

    def __repr__(self) -> str:
        return f"Adjacency(n={self.num_vertices}, m={self.num_edges})"

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self.num_vertices:
            raise GraphFormatError(
                f"vertex {vertex} out of range [0, {self.num_vertices})"
            )


def _validate_structure(offsets: np.ndarray, targets: np.ndarray) -> None:
    if offsets.ndim != 1 or offsets.shape[0] < 1:
        raise GraphFormatError("offsets must be a 1-D array of length >= 1")
    if targets.ndim != 1:
        raise GraphFormatError("targets must be a 1-D array")
    if offsets[0] != 0:
        raise GraphFormatError(f"offsets[0] must be 0, got {offsets[0]}")
    if offsets[-1] != targets.shape[0]:
        raise GraphFormatError(
            f"offsets[-1] ({offsets[-1]}) must equal number of edges "
            f"({targets.shape[0]})"
        )
    if np.any(np.diff(offsets) < 0):
        raise GraphFormatError("offsets must be non-decreasing")
    n = offsets.shape[0] - 1
    if targets.size and (targets.min() < 0 or targets.max() >= n):
        raise GraphFormatError(f"target vertex IDs must lie in [0, {n})")


def _check_edges(
    num_vertices: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Edge arrays as ``int64``, checked to be 1-D, paired and in ``[0, n)``."""
    if num_vertices < 0:
        raise GraphFormatError(f"negative vertex count: {num_vertices}")
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if sources.shape != targets.shape or sources.ndim != 1:
        raise GraphFormatError(
            f"edge arrays must be 1-D and equal length, got shapes "
            f"{sources.shape} and {targets.shape}"
        )
    if sources.size:
        lo = min(int(sources.min()), int(targets.min()))
        hi = max(int(sources.max()), int(targets.max()))
        if lo < 0 or hi >= num_vertices:
            raise GraphFormatError(
                f"edge endpoint out of range [0, {num_vertices}): "
                f"saw IDs in [{lo}, {hi}]"
            )
    return sources, targets


def _pack_edges(n: int, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Key ``source * n + target`` per edge: sorts as the pair, ``divmod`` undoes it."""
    if n > _MAX_PACKED_VERTICES:
        raise GraphFormatError(
            f"{n} vertices exceed the packed edge key bound {_MAX_PACKED_VERTICES}"
        )
    keys = sources * n
    keys += targets
    return keys


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of 1-D integers by sort-then-mask; its hash path is slower."""
    values = np.sort(values)
    keep = np.ones(values.shape, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]
