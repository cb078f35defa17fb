"""Property tests: the streaming trace pipeline is bit-exact.

The scale tier replaces materialize-everything stages with bounded
streams — :func:`spmv_trace_chunks` for trace generation,
:func:`interleave_stream` for the round-robin merge, and
:func:`simulate_spmv_streamed` for the whole pipeline.  Their contract
is not "approximately the same": every array they produce must equal
the materializing reference bit for bit, for any chunk size, thread
count and interval.  These tests pin that equivalence across randomized
RMAT graphs, both traversal directions, chunk sizes down to 1 access,
and the chunk-boundary edge cases (zero-degree runs, a boundary inside
one vertex's access burst, finished-early threads).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.generate.rmat import rmat_edges
from repro.graph import Graph, build_graph
from repro.sim import (
    AddressSpace,
    SimulationConfig,
    concatenate_traces,
    interleave_stream,
    interleave_traces,
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


class TestStreamedSimulator:
    @pytest.fixture(scope="class")
    def graph(self):
        return _rmat(5, log_scale=9, num_edges=4000)

    @pytest.fixture(scope="class")
    def config(self, graph):
        approx = graph.num_edges + graph.num_vertices // 4
        return SimulationConfig.scaled_for(
            graph, scan_interval=max(1, approx // 16)
        )

    @pytest.fixture(scope="class")
    def references(self, graph, config):
        return {
            direction: simulate_spmv(
                graph, dataclasses.replace(config, direction=direction)
            )
            for direction in ("pull", "push")
        }

    @pytest.mark.parametrize("direction", ["pull", "push"])
    @pytest.mark.parametrize("chunk_accesses", [1 << 20, 997, 1 << 12, 1 << 13])
    def test_matches_materialized_simulation(
        self, graph, config, references, chunk_accesses, direction
    ):
        config = dataclasses.replace(config, direction=direction)
        reference = references[direction]
        streamed = simulate_spmv_streamed(
            graph, config, chunk_accesses=chunk_accesses
        )
        assert streamed.num_accesses == reference.num_accesses
        assert streamed.l3_misses == reference.l3_misses
        assert streamed.tlb_misses == reference.tlb_misses
        assert streamed.random_accesses == reference.random_accesses
        assert streamed.random_misses == reference.random_misses
        np.testing.assert_array_equal(
            streamed.partition_boundaries, reference.partition_boundaries
        )
        assert len(streamed.snapshots) == len(reference.snapshots)
        for got, want in zip(streamed.snapshots, reference.snapshots):
            assert got.access_index == want.access_index
            np.testing.assert_array_equal(
                got.resident_lines, want.resident_lines
            )
        assert streamed.effective_cache_size() == pytest.approx(
            reference.effective_cache_size()
        )

    def test_config_kwargs_are_exclusive(self, graph, config):
        with pytest.raises(SimulationError):
            simulate_spmv_streamed(graph, config, pressure=0.5)
