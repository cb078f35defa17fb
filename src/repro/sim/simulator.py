"""End-to-end graph-specific cache simulation (Section V-B of the paper).

:func:`simulate_spmv` performs the paper's two-phase parallel
simulation: (1) log memory accesses per thread partition, (2) interleave
the per-thread logs round-robin per interval and replay them through a
simulated shared L3 (and optionally a DTLB).  The returned
:class:`SimulationResult` carries everything the paper's metrics need:
hit bits with per-access attribution, resident-line snapshots for the
Effective Cache Size, TLB miss counts, and a work-stealing schedule for
idle-time estimation.
"""

from __future__ import annotations

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
from repro.sim.stats import VertexAccessStats, attribute_random_accesses
from repro.sim.timing import TimingModel
from repro.sim.tlb import TLBConfig, lines_to_pages, simulate_tlb
from repro.sim.trace import MemoryTrace, spmv_trace, spmv_trace_chunks

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "StreamedSimulationResult",
    "simulate_spmv",
    "simulate_spmv_streamed",
]


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


@dataclass
class SimulationResult:
    """Hit/miss outcome of one simulated parallel SpMV traversal."""

    graph: Graph
    config: SimulationConfig
    trace: MemoryTrace
    hits: np.ndarray
    thread_ids: np.ndarray
    snapshots: list[CacheSnapshot]
    tlb_misses: int
    partition_boundaries: np.ndarray

    # -- headline counters --------------------------------------------------

    @property
    def num_accesses(self) -> int:
        return len(self.trace)

    @property
    def l3_misses(self) -> int:
        return self.num_accesses - int(self.hits.sum())

    @property
    def random_region(self) -> int:
        return (
            Region.VERTEX_DATA if self.config.direction == "pull" else Region.VERTEX_OUT
        )

    @property
    def random_accesses(self) -> int:
        return int((self.trace.kinds == self.random_region).sum())

    @property
    def random_misses(self) -> int:
        mask = self.trace.kinds == self.random_region
        return int(mask.sum()) - int(self.hits[mask].sum())

    @property
    def random_miss_rate(self) -> float:
        accesses = self.random_accesses
        if accesses == 0:
            return 0.0
        return self.random_misses / accesses

    # -- attribution ---------------------------------------------------------

    def random_stats(self, by: str = "read") -> VertexAccessStats:
        """Per-vertex random-access stats (see :mod:`repro.sim.stats`)."""
        return attribute_random_accesses(
            self.trace,
            self.hits,
            self.graph.num_vertices,
            by=by,
            random_region=self.random_region,
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
        space = self.trace.space
        counts = space.region_counts_batch(
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
        degrees = (
            self.graph.in_degrees()
            if self.config.direction == "pull"
            else self.graph.out_degrees()
        )
        stats = self.random_stats(by="proc")
        return (
            degrees.astype(np.float64) * timing.cycles_per_edge
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


def simulate_spmv(
    graph: Graph, config: SimulationConfig | None = None, **scaled_kwargs: Any
) -> SimulationResult:
    """Simulate one parallel SpMV traversal of ``graph``.

    When ``config`` is omitted a scaled configuration is derived from the
    graph via :meth:`SimulationConfig.scaled_for`, forwarding any keyword
    arguments.
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
        with span("sim.partition"):
            space = AddressSpace(
                graph.num_vertices, graph.num_edges, line_size=config.cache.line_size
            )
            boundaries = edge_balanced_partitions(
                graph, config.num_threads, direction=config.direction
            )
        with span("sim.trace"):
            traces = [
                spmv_trace(
                    graph,
                    space,
                    direction=config.direction,
                    vertex_range=(int(boundaries[t]), int(boundaries[t + 1])),
                    promote_sequential=config.promote_sequential,
                )
                for t in range(config.num_threads)
            ]
        with span("sim.interleave"):
            merged, thread_ids = interleave_traces(traces, config.interleave_interval)

        cache = SetAssociativeCache(config.cache)
        with span("sim.cache", accesses=len(merged)):
            outcome = cache.simulate(merged.lines, scan_interval=config.scan_interval)
        tlb_misses = 0
        if config.tlb is not None:
            with span("sim.tlb"):
                tlb_misses = simulate_tlb(
                    merged.lines, config.cache.line_size, config.tlb
                ).num_misses
        if obs_enabled():
            obs_metrics.registry.counter("sim.accesses").inc(len(merged))
            obs_metrics.registry.counter("sim.l3_misses").inc(
                len(merged) - int(outcome.hits.sum())
            )
            obs_metrics.registry.counter("sim.tlb_misses").inc(tlb_misses)

    return SimulationResult(
        graph=graph,
        config=config,
        trace=merged,
        hits=outcome.hits,
        thread_ids=thread_ids,
        snapshots=outcome.snapshots,
        tlb_misses=tlb_misses,
        partition_boundaries=boundaries,
    )


@dataclass
class StreamedSimulationResult:
    """Headline outcome of one *streamed* (scale-tier) SpMV simulation.

    Unlike :class:`SimulationResult` this never retains the trace, so
    per-vertex attribution (``random_stats`` / ``schedule``) is not
    available — only the aggregate counters the scaling-curve experiment
    needs: per-region access/hit counts, ECS snapshots and TLB misses.
    """

    graph: Graph
    config: SimulationConfig
    space: AddressSpace
    region_accesses: np.ndarray
    region_hits: np.ndarray
    snapshots: list[CacheSnapshot]
    tlb_misses: int
    partition_boundaries: np.ndarray

    @property
    def num_accesses(self) -> int:
        return int(self.region_accesses.sum())

    @property
    def num_hits(self) -> int:
        return int(self.region_hits.sum())

    @property
    def l3_misses(self) -> int:
        return self.num_accesses - self.num_hits

    @property
    def random_region(self) -> int:
        return (
            Region.VERTEX_DATA if self.config.direction == "pull" else Region.VERTEX_OUT
        )

    @property
    def random_accesses(self) -> int:
        return int(self.region_accesses[self.random_region])

    @property
    def random_misses(self) -> int:
        return int(
            self.region_accesses[self.random_region]
            - self.region_hits[self.random_region]
        )

    @property
    def random_miss_rate(self) -> float:
        accesses = self.random_accesses
        if accesses == 0:
            return 0.0
        return self.random_misses / accesses

    def effective_cache_size_samples(self) -> np.ndarray:
        """Per-snapshot ECS percentage (same maths as the retained path)."""
        if not self.snapshots:
            return np.zeros(0, dtype=np.float64)
        capacity = self.config.cache.num_lines
        counts = self.space.region_counts_batch(
            [snap.resident_lines for snap in self.snapshots]
        )
        return counts[:, self.random_region] / capacity * 100.0

    def effective_cache_size(self) -> float:
        samples = self.effective_cache_size_samples()
        if samples.size == 0:
            raise SimulationError(
                "no snapshots recorded; run with scan_interval > 0 to measure ECS"
            )
        return float(samples.mean())


def simulate_spmv_streamed(
    graph: Graph,
    config: SimulationConfig | None = None,
    *,
    chunk_accesses: int = 1 << 20,
    **scaled_kwargs: Any,
) -> StreamedSimulationResult:
    """Scale-tier :func:`simulate_spmv`: the same replay in bounded memory.

    The pipeline is trace chunks (:func:`spmv_trace_chunks`, one stream
    per thread partition) -> streaming round-robin interleave
    (:func:`interleave_stream`) -> one L3 and one TLB
    :class:`SetAssociativeCache`, each fed every interleaved chunk in
    turn.  Every stage holds O(``chunk_accesses``) state; per-region
    access and hit counts are folded in chunk by chunk.

    Headline counters and ECS snapshots are **bit-identical** to
    :func:`simulate_spmv` with the same config, for any
    ``chunk_accesses``: consecutive ``simulate`` calls on one cache
    compose exactly (property-tested in ``tests/test_trace_stream.py``
    and ``tests/test_cache_kernel.py``).
    """
    if config is None:
        config = SimulationConfig.scaled_for(graph, **scaled_kwargs)
    elif scaled_kwargs:
        raise SimulationError("pass either a config or scaling kwargs, not both")

    with span(
        "sim.spmv_streamed",
        vertices=graph.num_vertices,
        edges=graph.num_edges,
        policy=config.cache.policy,
        threads=config.num_threads,
    ):
        space = AddressSpace(
            graph.num_vertices, graph.num_edges, line_size=config.cache.line_size
        )
        boundaries = edge_balanced_partitions(
            graph, config.num_threads, direction=config.direction
        )
        sources = [
            spmv_trace_chunks(
                graph,
                space,
                direction=config.direction,
                vertex_range=(int(boundaries[t]), int(boundaries[t + 1])),
                promote_sequential=config.promote_sequential,
                max_accesses=max(1, chunk_accesses // config.num_threads),
            )
            for t in range(config.num_threads)
        ]
        stream = interleave_stream(
            sources, config.interleave_interval, batch_accesses=chunk_accesses
        )

        cache = SetAssociativeCache(config.cache)
        tlb_cache: SetAssociativeCache | None = None
        if config.tlb is not None:
            tlb_cache = SetAssociativeCache(
                CacheConfig(
                    num_sets=config.tlb.num_sets,
                    ways=config.tlb.ways,
                    line_size=64,
                    policy="lru",
                )
            )
        region_accesses = np.zeros(Region.COUNT, dtype=np.int64)
        region_hits = np.zeros(Region.COUNT, dtype=np.int64)
        snapshots: list[CacheSnapshot] = []
        tlb_misses = 0
        for merged, _tids in stream:
            with span("sim.cache", accesses=len(merged)):
                outcome = cache.simulate(
                    merged.lines, scan_interval=config.scan_interval
                )
            snapshots.extend(outcome.snapshots)
            region_accesses += np.bincount(merged.kinds, minlength=Region.COUNT)
            region_hits += np.bincount(
                merged.kinds[outcome.hits.view(bool)], minlength=Region.COUNT
            )
            if tlb_cache is not None and config.tlb is not None:
                with span("sim.tlb"):
                    pages = lines_to_pages(
                        merged.lines, config.cache.line_size, config.tlb.page_size
                    )
                    tlb_misses += tlb_cache.simulate(pages).num_misses

        if obs_enabled():
            num_accesses = int(region_accesses.sum())
            obs_metrics.registry.counter("sim.accesses").inc(num_accesses)
            obs_metrics.registry.counter("sim.l3_misses").inc(
                num_accesses - int(region_hits.sum())
            )
            obs_metrics.registry.counter("sim.tlb_misses").inc(tlb_misses)

    return StreamedSimulationResult(
        graph=graph,
        config=config,
        space=space,
        region_accesses=region_accesses,
        region_hits=region_hits,
        snapshots=snapshots,
        tlb_misses=tlb_misses,
        partition_boundaries=boundaries,
    )
