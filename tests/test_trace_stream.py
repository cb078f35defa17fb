"""Property tests: the streaming trace pipeline is bit-exact.

The simulator runs on bounded streams — :func:`spmv_trace_chunks` for
trace generation, :func:`interleave_stream` for the round-robin merge,
and :func:`simulate_spmv` for the whole pipeline.  Their contract is
not "approximately the same": every array they produce must equal the
materializing reference bit for bit, for any chunk size, thread count
and interval.  The reference for :func:`simulate_spmv` lives here: one
replay of :func:`interleaved_trace` through fresh caches.  These tests pin that equivalence across randomized
RMAT graphs, both traversal directions, chunk sizes down to 1 access,
and the chunk-boundary edge cases (zero-degree runs, a boundary inside
one vertex's access burst, finished-early threads).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.generate.rmat import rmat_edges
from repro.graph import Graph, build_graph
from repro.sim import (
    AddressSpace,
    CacheConfig,
    Region,
    SetAssociativeCache,
    SimulationConfig,
    TLBConfig,
    attribute_random_accesses,
    concatenate_traces,
    interleave_stream,
    interleave_traces,
    interleaved_trace,
    lines_to_pages,
    simulate_spmv,
    simulate_spmv_streamed,
    spmv_trace,
    spmv_trace_chunks,
)
from repro.sim.parallel import edge_balanced_partitions
from repro.sim.trace import MemoryTrace

_GRAPHS: dict = {}


def _rmat(seed: int, log_scale: int = 7, num_edges: int = 640) -> Graph:
    key = (seed, log_scale, num_edges)
    if key not in _GRAPHS:
        src, dst = rmat_edges(log_scale, num_edges, seed=seed)
        _GRAPHS[key] = build_graph(
            1 << log_scale, src, dst, name=f"rm{seed}"
        ).graph
    return _GRAPHS[key]


def _assert_traces_equal(actual: MemoryTrace, expected: MemoryTrace) -> None:
    np.testing.assert_array_equal(actual.lines, expected.lines)
    np.testing.assert_array_equal(actual.kinds, expected.kinds)
    np.testing.assert_array_equal(actual.read_vertex, expected.read_vertex)
    np.testing.assert_array_equal(actual.proc_vertex, expected.proc_vertex)


class TestTraceChunks:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 3),
        direction=st.sampled_from(["pull", "push"]),
        promote=st.booleans(),
        max_accesses=st.sampled_from([1, 7, 64, 509, 4096]),
    )
    def test_concatenation_is_bit_exact(
        self, seed, direction, promote, max_accesses
    ):
        graph = _rmat(seed)
        space = AddressSpace(graph.num_vertices, graph.num_edges)
        chunks = list(
            spmv_trace_chunks(
                graph,
                space,
                direction=direction,
                promote_sequential=promote,
                max_accesses=max_accesses,
            )
        )
        reference = spmv_trace(
            graph, space, direction=direction, promote_sequential=promote
        )
        _assert_traces_equal(concatenate_traces(chunks), reference)
        assert all(len(chunk) > 0 for chunk in chunks)
        if max_accesses * 4 < len(reference):
            assert len(chunks) > 1

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2),
        start=st.integers(0, 100),
        width=st.integers(0, 60),
        max_accesses=st.sampled_from([1, 19, 256]),
    )
    def test_vertex_range_matches_sliced_reference(
        self, seed, start, width, max_accesses
    ):
        graph = _rmat(seed)
        space = AddressSpace(graph.num_vertices, graph.num_edges)
        vertex_range = (start, min(graph.num_vertices, start + width))
        chunks = list(
            spmv_trace_chunks(
                graph, space, vertex_range=vertex_range, max_accesses=max_accesses
            )
        )
        reference = spmv_trace(graph, space, vertex_range=vertex_range)
        if not chunks:
            # An empty vertex range streams zero chunks.
            assert len(reference) == 0
        else:
            _assert_traces_equal(concatenate_traces(chunks), reference)

    def test_zero_degree_runs_span_chunk_boundaries(self):
        # Edges confined to the first and last 4 of 256 vertices: the
        # middle ~248 vertices are a long zero-in-degree run the chunker
        # must cross while re-holding the dedup carry.
        src = np.array([0, 1, 2, 3, 252, 253, 254, 255], dtype=np.int64)
        dst = np.array([1, 2, 3, 0, 253, 254, 255, 252], dtype=np.int64)
        graph = Graph.from_edges(256, src, dst, name="sparse-runs")
        space = AddressSpace(graph.num_vertices, graph.num_edges)
        for max_accesses in (1, 5, 37):
            chunks = list(
                spmv_trace_chunks(graph, space, max_accesses=max_accesses)
            )
            _assert_traces_equal(
                concatenate_traces(chunks), spmv_trace(graph, space)
            )

    def test_unknown_direction_rejected(self):
        graph = _rmat(0)
        with pytest.raises(SimulationError):
            next(iter(spmv_trace_chunks(graph, direction="sideways")))


class TestConcatenateTraces:
    def _chunks(self):
        graph = _rmat(1)
        space = AddressSpace(graph.num_vertices, graph.num_edges)
        return list(spmv_trace_chunks(graph, space, max_accesses=128))

    def test_presized_matches_list_branch(self):
        chunks = self._chunks()
        total = sum(len(c) for c in chunks)
        presized = concatenate_traces(iter(chunks), total_length=total)
        _assert_traces_equal(presized, concatenate_traces(chunks))

    def test_wrong_total_length_rejected(self):
        chunks = self._chunks()
        total = sum(len(c) for c in chunks)
        with pytest.raises(SimulationError):
            concatenate_traces(iter(chunks), total_length=total - 1)
        with pytest.raises(SimulationError):
            concatenate_traces(iter(chunks), total_length=total + 1)


class TestInterleaveStream:
    @settings(max_examples=25, deadline=None)
    @given(
        num_threads=st.integers(1, 8),
        interval=st.sampled_from([1, 3, 17, 64]),
        batch_accesses=st.sampled_from([1, 29, 256, 1 << 20]),
        seed=st.integers(0, 2),
    )
    def test_matches_materialized_interleave(
        self, num_threads, interval, batch_accesses, seed
    ):
        graph = _rmat(seed, log_scale=8, num_edges=1600)
        space = AddressSpace(graph.num_vertices, graph.num_edges)
        bounds = edge_balanced_partitions(graph, num_threads)
        ranges = [
            (int(bounds[i]), int(bounds[i + 1])) for i in range(num_threads)
        ]
        materialized = [
            spmv_trace(graph, space, vertex_range=r) for r in ranges
        ]
        reference, reference_tids = interleave_traces(materialized, interval)

        sources = [
            spmv_trace_chunks(graph, space, vertex_range=r, max_accesses=97)
            for r in ranges
        ]
        batches = list(
            interleave_stream(sources, interval, batch_accesses=batch_accesses)
        )
        merged = concatenate_traces([b[0] for b in batches])
        _assert_traces_equal(merged, reference)
        np.testing.assert_array_equal(
            np.concatenate([b[1] for b in batches]), reference_tids
        )
        # Streaming must actually stream: small batch caps produce many
        # batches, each a contiguous slice of the reference output.
        if batch_accesses < len(reference) // 4:
            assert len(batches) > 1

    def test_rejects_bad_arguments(self):
        graph = _rmat(0)
        space = AddressSpace(graph.num_vertices, graph.num_edges)
        source = [spmv_trace_chunks(graph, space)]
        with pytest.raises(SimulationError):
            next(iter(interleave_stream([], 4)))
        with pytest.raises(SimulationError):
            next(iter(interleave_stream(source, 0)))
        with pytest.raises(SimulationError):
            next(iter(interleave_stream(source, 4, batch_accesses=0)))


def _replay_oracle(graph: Graph, config: SimulationConfig) -> dict:
    """One replay of the whole interleaved trace through fresh caches.

    The reference :func:`simulate_spmv` is held to: it materializes the
    trace, replays it in one call through a fresh L3 and a fresh LRU TLB,
    and attributes the random accesses with the per-access
    :func:`attribute_random_accesses`.
    """
    trace, _ = interleaved_trace(graph, config)
    outcome = SetAssociativeCache(config.cache).simulate(
        trace.lines, scan_interval=config.scan_interval
    )
    tlb = config.tlb
    tlb_cache = SetAssociativeCache(
        CacheConfig(num_sets=tlb.entries // tlb.ways, ways=tlb.ways, policy="lru")
    )
    pages = lines_to_pages(trace.lines, config.cache.line_size, tlb.page_size)
    hit = outcome.hits.astype(bool)
    random_region = (
        Region.VERTEX_DATA if config.direction == "pull" else Region.VERTEX_OUT
    )
    return {
        "region_accesses": np.bincount(trace.kinds, minlength=Region.COUNT),
        "region_hits": np.bincount(trace.kinds[hit], minlength=Region.COUNT),
        "snapshots": outcome.snapshots,
        "tlb_misses": tlb_cache.simulate(pages).num_misses,
        "boundaries": edge_balanced_partitions(
            graph, config.num_threads, direction=config.direction
        ),
        "stats": {
            by: attribute_random_accesses(
                trace,
                outcome.hits,
                graph.num_vertices,
                by=by,
                random_region=random_region,
            )
            for by in ("read", "proc")
        },
    }


class TestStreamedSimulator:
    """``simulate_spmv`` replays in chunks; the oracle replays the whole trace."""

    POLICIES = ("lru", "srrip", "brrip", "drrip")

    @pytest.fixture(scope="class")
    def graph(self):
        return _rmat(5, log_scale=9, num_edges=4000)

    @pytest.fixture(scope="class")
    def configs(self, graph):
        # 64 sets x 2 ways holds well under the ~10^4-line working set,
        # and 64 sets give DRRIP one leader pair per 32 sets to duel on.
        approx = graph.num_edges + graph.num_vertices // 4
        return {
            (policy, direction): SimulationConfig(
                cache=CacheConfig(num_sets=64, ways=2, policy=policy, seed=3),
                tlb=TLBConfig(entries=8, ways=2, page_size=512),
                scan_interval=max(1, approx // 16),
                direction=direction,
            )
            for policy in self.POLICIES
            for direction in ("pull", "push")
        }

    @pytest.fixture(scope="class")
    def oracles(self, graph, configs):
        return {key: _replay_oracle(graph, config) for key, config in configs.items()}

    @pytest.mark.parametrize("direction", ["pull", "push"])
    @pytest.mark.parametrize("chunk_accesses", [1 << 20, 997, 1 << 12, 1 << 13, 1])
    def test_matches_materialized_simulation(
        self, graph, configs, oracles, chunk_accesses, direction
    ):
        for policy in self.POLICIES:
            config = configs[(policy, direction)]
            want = oracles[(policy, direction)]
            got = simulate_spmv(graph, config, chunk_accesses=chunk_accesses)
            np.testing.assert_array_equal(got.region_accesses, want["region_accesses"])
            np.testing.assert_array_equal(got.region_hits, want["region_hits"])
            assert got.tlb_misses == want["tlb_misses"], policy
            np.testing.assert_array_equal(
                got.partition_boundaries, want["boundaries"]
            )
            assert len(got.snapshots) == len(want["snapshots"]) > 1
            for mine, theirs in zip(got.snapshots, want["snapshots"]):
                assert mine.access_index == theirs.access_index
                np.testing.assert_array_equal(
                    mine.resident_lines, theirs.resident_lines
                )
            for by, stats in want["stats"].items():
                np.testing.assert_array_equal(
                    got.random_stats(by).accesses, stats.accesses
                )
                np.testing.assert_array_equal(got.random_stats(by).misses, stats.misses)
            assert got.random_misses == want["stats"]["read"].total_misses
            assert got.l3_misses == int(
                want["region_accesses"].sum() - want["region_hits"].sum()
            )

    def test_config_kwargs_are_exclusive(self, graph):
        with pytest.raises(SimulationError):
            simulate_spmv(graph, SimulationConfig.scaled_for(graph), pressure=0.5)

    def test_streamed_name_is_an_alias(self):
        assert simulate_spmv_streamed is simulate_spmv
