"""End-to-end graph-specific cache simulation (Section V-B of the paper).

:func:`simulate_spmv` performs the paper's two-phase parallel
simulation: (1) log memory accesses per thread partition, (2) interleave
the per-thread logs round-robin per interval and replay them through a
simulated shared L3 (and optionally a DTLB).  Both phases run chunk by
chunk, so memory stays O(``chunk_accesses``) at any graph size.  The
returned :class:`SimulationResult` carries everything the paper's
metrics need, summed over the chunks: per-region access and hit counts,
per-vertex random-access misses under both attributions, resident-line
snapshots for the Effective Cache Size, TLB miss counts, and the
partitions for the work-stealing schedule.  Analyses that need every
access (locality types) take the trace from :func:`interleaved_trace`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import SimulationError
from repro.graph.graph import Graph
from repro.obs import enabled as obs_enabled
from repro.obs import metrics as obs_metrics
from repro.obs import span

from repro.sim.address_space import AddressSpace, Region
from repro.sim.cache import CacheConfig, CacheSnapshot, SetAssociativeCache
from repro.sim.parallel import (
    edge_balanced_partitions,
    interleave_stream,
    interleave_traces,
)
from repro.sim.scheduler import (
    ScheduleResult,
    cost_balanced_chunks,
    simulate_work_stealing,
)
from repro.sim.stats import VertexAccessStats
from repro.sim.timing import TimingModel
from repro.sim.tlb import TLBConfig, lines_to_pages
from repro.sim.trace import MemoryTrace, spmv_trace, spmv_trace_chunks

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "interleaved_trace",
    "simulate_spmv",
    "simulate_spmv_streamed",
]

#: ECS scans per traversal when a config asks for them without an interval.
DEFAULT_NUM_SCANS = 64


@dataclass(frozen=True)
class SimulationConfig:
    """Everything that parameterizes one SpMV simulation."""

    cache: CacheConfig
    tlb: TLBConfig | None = None
    num_threads: int = 8
    interleave_interval: int = 64
    scan_interval: int = 0
    direction: str = "pull"
    promote_sequential: bool = True
    timing: TimingModel = field(default_factory=TimingModel)

    def __post_init__(self) -> None:
        if self.num_threads <= 0:
            raise SimulationError("num_threads must be positive")
        if self.direction not in ("pull", "push"):
            raise SimulationError(
                f"direction must be 'pull' or 'push', got {self.direction!r}"
            )

    @classmethod
    def scaled_for(
        cls,
        graph: Graph,
        *,
        pressure: float = 0.08,
        num_threads: int = 8,
        scan_interval: int = 0,
        direction: str = "pull",
        with_tlb: bool = True,
        policy: str = "drrip",
    ) -> "SimulationConfig":
        """Config whose cache/TLB are scaled to the graph (DESIGN.md §2)."""
        cache = CacheConfig.scaled_for(
            graph.num_vertices, pressure=pressure, policy=policy
        )
        tlb = TLBConfig.scaled_for(graph.num_vertices) if with_tlb else None
        return cls(
            cache=cache,
            tlb=tlb,
            num_threads=num_threads,
            scan_interval=scan_interval,
            direction=direction,
            timing=TimingModel(num_threads=num_threads),
        )

    def with_scans(
        self, graph: Graph, *, num_scans: int = DEFAULT_NUM_SCANS
    ) -> "SimulationConfig":
        """This config with ``num_scans`` ECS scans spread over ``graph``'s trace.

        The trace is close to one random access per edge plus the
        sequential lines, about ``E + V/4`` accesses.
        """
        approx_len = graph.num_edges + graph.num_vertices // 4
        return dataclasses.replace(
            self, scan_interval=max(1, approx_len // max(1, num_scans))
        )

    def address_space(self, graph: Graph) -> AddressSpace:
        """The byte layout of ``graph`` at this config's line size."""
        return AddressSpace(
            graph.num_vertices, graph.num_edges, line_size=self.cache.line_size
        )

    @property
    def random_region(self) -> int:
        """Region of the per-edge random accesses in this direction."""
        return Region.VERTEX_DATA if self.direction == "pull" else Region.VERTEX_OUT


@dataclass
class SimulationResult:
    """Hit/miss outcome of one simulated parallel SpMV traversal.

    Every count is summed over the replayed chunks; no per-access array
    is kept.  ``misses_by_read`` / ``misses_by_proc`` hold each vertex's
    random-access misses attributed to the vertex whose data was touched
    / the vertex being processed (:mod:`repro.sim.stats`).
    """

    graph: Graph
    config: SimulationConfig
    region_accesses: np.ndarray
    region_hits: np.ndarray
    misses_by_read: np.ndarray
    misses_by_proc: np.ndarray
    snapshots: list[CacheSnapshot]
    tlb_misses: int
    partition_boundaries: np.ndarray

    # -- headline counters --------------------------------------------------

    @property
    def space(self) -> AddressSpace:
        return self.config.address_space(self.graph)

    @property
    def num_accesses(self) -> int:
        return int(self.region_accesses.sum())

    @property
    def l3_misses(self) -> int:
        return self.num_accesses - int(self.region_hits.sum())

    @property
    def random_region(self) -> int:
        return self.config.random_region

    @property
    def random_accesses(self) -> int:
        return int(self.region_accesses[self.random_region])

    @property
    def random_misses(self) -> int:
        region = self.random_region
        return int(self.region_accesses[region] - self.region_hits[region])

    @property
    def random_miss_rate(self) -> float:
        accesses = self.random_accesses
        if accesses == 0:
            return 0.0
        return self.random_misses / accesses

    # -- attribution ---------------------------------------------------------

    def random_stats(self, by: str = "read") -> VertexAccessStats:
        """Per-vertex random-access stats (see :mod:`repro.sim.stats`).

        Every edge issues exactly one random access, so the access counts
        are degrees: in a pull traversal the touched vertex is read once
        per out-edge and the processed vertex reads once per in-edge;
        push swaps the two.
        """
        pull = self.config.direction == "pull"
        if by == "read":
            adj = self.graph.out_adj if pull else self.graph.in_adj
            misses = self.misses_by_read
        elif by == "proc":
            adj = self.graph.in_adj if pull else self.graph.out_adj
            misses = self.misses_by_proc
        else:
            raise SimulationError(f"attribution must be 'read' or 'proc', got {by!r}")
        return VertexAccessStats(
            accesses=adj.degrees().astype(np.int64), misses=misses
        )

    # -- effective cache size --------------------------------------------------

    def effective_cache_size_samples(self) -> np.ndarray:
        """Per-snapshot percentage of capacity holding random-access data.

        Snapshots are classified in one batched pass (see
        :meth:`AddressSpace.region_counts_batch`) instead of one
        ``region_counts`` call per snapshot.
        """
        if not self.snapshots:
            return np.zeros(0, dtype=np.float64)
        capacity = self.config.cache.num_lines
        counts = self.space.region_counts_batch(
            [snap.resident_lines for snap in self.snapshots]
        )
        return counts[:, self.random_region] / capacity * 100.0

    def effective_cache_size(self) -> float:
        """Average ECS percentage over all snapshots (Table V)."""
        samples = self.effective_cache_size_samples()
        if samples.size == 0:
            raise SimulationError(
                "no snapshots recorded; run with scan_interval > 0 to measure ECS"
            )
        return float(samples.mean())

    # -- scheduling / timing --------------------------------------------------

    def per_vertex_cost(self) -> np.ndarray:
        """Simulated cycles each vertex's processing consumes."""
        timing = self.config.timing
        stats = self.random_stats(by="proc")
        return (
            stats.accesses.astype(np.float64) * timing.cycles_per_edge
            + stats.misses.astype(np.float64) * timing.cycles_per_l3_miss
        )

    def schedule(self, *, chunks_per_thread: int = 64) -> ScheduleResult:
        """Work-stealing schedule of this traversal (idle % of Table IV).

        Work units are cost-balanced chunks (~64 per thread), matching
        the fine-grained edge-balanced partitioning of the paper's
        runtime.
        """
        costs = cost_balanced_chunks(
            self.per_vertex_cost(),
            self.partition_boundaries,
            chunks_per_thread=chunks_per_thread,
        )
        return simulate_work_stealing(costs)

    def traversal_time_ms(self, *, chunks_per_thread: int = 64) -> float:
        """Simulated traversal time (Table IV "Time" substitute)."""
        idle = self.schedule(chunks_per_thread=chunks_per_thread).idle_percent
        return self.config.timing.traversal_time_ms(
            self.graph.num_edges, self.l3_misses, self.tlb_misses, idle
        )


def _thread_ranges(
    graph: Graph, config: SimulationConfig
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Edge-balanced partition boundaries and each thread's vertex range."""
    boundaries = edge_balanced_partitions(
        graph, config.num_threads, direction=config.direction
    )
    ranges = [
        (int(boundaries[t]), int(boundaries[t + 1]))
        for t in range(config.num_threads)
    ]
    return boundaries, ranges


def interleaved_trace(
    graph: Graph, config: SimulationConfig
) -> tuple[MemoryTrace, np.ndarray]:
    """The whole interleaved trace :func:`simulate_spmv` replays.

    One :func:`spmv_trace` per thread partition, merged by
    :func:`interleave_traces`; returns the trace and each access's
    thread ID.  It holds O(edges) memory, so only analyses that need
    every access (locality types, one trace through several caches)
    call it.
    """
    space = config.address_space(graph)
    _, ranges = _thread_ranges(graph, config)
    traces = [
        spmv_trace(
            graph,
            space,
            direction=config.direction,
            vertex_range=vertex_range,
            promote_sequential=config.promote_sequential,
        )
        for vertex_range in ranges
    ]
    return interleave_traces(traces, config.interleave_interval)


def simulate_spmv(
    graph: Graph,
    config: SimulationConfig | None = None,
    *,
    chunk_accesses: int = 1 << 20,
    **scaled_kwargs: Any,
) -> SimulationResult:
    """Simulate one parallel SpMV traversal of ``graph``.

    When ``config`` is omitted a scaled configuration is derived from the
    graph via :meth:`SimulationConfig.scaled_for`, forwarding any keyword
    arguments.

    The pipeline is trace chunks (:func:`spmv_trace_chunks`, one stream
    per thread partition) -> streaming round-robin interleave
    (:func:`interleave_stream`) -> one L3 and one TLB
    :class:`SetAssociativeCache`, each fed every interleaved chunk in
    turn.  Every stage holds O(``chunk_accesses``) state, and each
    chunk's counts are added to the result before the next one is
    made.  The result does not depend on ``chunk_accesses``:
    consecutive ``simulate`` calls on one cache compose exactly, so the
    counts and snapshots equal one replay of :func:`interleaved_trace`
    through fresh caches (property-tested in
    ``tests/test_trace_stream.py``).  ``simulate_spmv_streamed`` is
    this same function under the scale tier's former name.
    """
    if config is None:
        config = SimulationConfig.scaled_for(graph, **scaled_kwargs)
    elif scaled_kwargs:
        raise SimulationError("pass either a config or scaling kwargs, not both")

    with span(
        "sim.spmv",
        vertices=graph.num_vertices,
        edges=graph.num_edges,
        policy=config.cache.policy,
        threads=config.num_threads,
    ):
        space = config.address_space(graph)
        boundaries, ranges = _thread_ranges(graph, config)
        sources = [
            spmv_trace_chunks(
                graph,
                space,
                direction=config.direction,
                vertex_range=vertex_range,
                promote_sequential=config.promote_sequential,
                max_accesses=max(1, chunk_accesses // config.num_threads),
            )
            for vertex_range in ranges
        ]
        stream = interleave_stream(
            sources, config.interleave_interval, batch_accesses=chunk_accesses
        )

        cache = SetAssociativeCache(config.cache)
        tlb = config.tlb
        tlb_cache = SetAssociativeCache(tlb.cache_config()) if tlb else None
        random_region = config.random_region
        n = graph.num_vertices
        region_accesses = np.zeros(Region.COUNT, dtype=np.int64)
        region_hits = np.zeros(Region.COUNT, dtype=np.int64)
        misses_by_read = np.zeros(n, dtype=np.int64)
        misses_by_proc = np.zeros(n, dtype=np.int64)
        snapshots: list[CacheSnapshot] = []
        tlb_misses = 0
        for merged, _tids in stream:
            with span("sim.cache", accesses=len(merged)):
                outcome = cache.simulate(
                    merged.lines, scan_interval=config.scan_interval
                )
            snapshots.extend(outcome.snapshots)
            # One bincount of ``kind * 2 + hit`` counts every region's
            # misses and hits (uint8 keys: 2 * Region.COUNT < 256).
            counts = np.bincount(
                merged.kinds * np.uint8(2) + outcome.hits,
                minlength=2 * Region.COUNT,
            ).reshape(Region.COUNT, 2)
            region_accesses += counts.sum(axis=1)
            region_hits += counts[:, 1]
            missed = np.flatnonzero(
                (merged.kinds == random_region) & ~outcome.hits.view(bool)
            )
            misses_by_read += np.bincount(merged.read_vertex[missed], minlength=n)
            misses_by_proc += np.bincount(merged.proc_vertex[missed], minlength=n)
            if tlb_cache is not None and tlb is not None:
                with span("sim.tlb"):
                    pages = lines_to_pages(
                        merged.lines, config.cache.line_size, tlb.page_size
                    )
                    tlb_misses += tlb_cache.simulate(pages).num_misses

        if obs_enabled():
            num_accesses = int(region_accesses.sum())
            obs_metrics.registry.counter("sim.accesses").inc(num_accesses)
            obs_metrics.registry.counter("sim.l3_misses").inc(
                num_accesses - int(region_hits.sum())
            )
            obs_metrics.registry.counter("sim.tlb_misses").inc(tlb_misses)

    return SimulationResult(
        graph=graph,
        config=config,
        region_accesses=region_accesses,
        region_hits=region_hits,
        misses_by_read=misses_by_read,
        misses_by_proc=misses_by_proc,
        snapshots=snapshots,
        tlb_misses=tlb_misses,
        partition_boundaries=boundaries,
    )


#: The scale tier's former entry point, kept as a plain alias because
#: ``e2ebench/flows.py`` imports it: it is :func:`simulate_spmv`, which
#: already replays in bounded chunks.
simulate_spmv_streamed = simulate_spmv
