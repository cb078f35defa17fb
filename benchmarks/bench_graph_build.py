"""Cost of graph construction and permutation, layer by layer.

Every CSR/CSC in the pipeline is built from an edge list: generation
runs ``build_graph`` (deduplicate, compact, then ``Graph.from_edges``)
and applying a reordering runs ``Graph.permuted``.  This bench times
those calls on three graphs: the two graphs of the end-to-end
``sim-stream`` workload (``rmat-scale`` and ``web-scale`` at
``REPRO_SCALE=0.0625``, about 1.0M and 0.63M edges) and the 16.4M-edge
ladder graph of ``bench_scale_curve.py --vertices 2097152``.  Per graph
it records, for ``dedup_edges``, ``Graph.from_edges``, ``build_graph``
and ``Graph.permuted`` (with the DBG relabeling), the median seconds of
5 runs, the tracemalloc peak of one more run and the sha256 of the
arrays the call returned.

Results go to ``BENCH_graph.json`` at the repo root, under a label
(default ``after``); other labels already in the file are kept.  A
before/after record is two runs, the first with an older checkout's
``src`` on ``PYTHONPATH``::

    PYTHONPATH=../old/src python benchmarks/bench_graph_build.py --label before
    PYTHONPATH=src python benchmarks/bench_graph_build.py --label after

With both labels present the file also carries every cell's speedup and
whether both labels returned identical arrays.  ``--skip-large`` leaves
out the 16.4M-edge graph (about 1.3 GB peak RSS with the older code).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_graph.json"
#: Runs per cell; seconds are the median.
_REPEATS = 5
#: The ladder graph ``bench_scale_curve.py --vertices 2097152`` builds.
_LARGE_VERTICES = 1 << 21


def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return digest.hexdigest()


def _graph_arrays(graph):
    return (graph.out_adj.offsets, graph.out_adj.targets,
            graph.in_adj.offsets, graph.in_adj.targets)


def _raw_edges(name: str):
    """The edge list a dataset's generator hands to ``build_graph``."""
    from repro.generate import datasets, load_dataset, social, webgraph
    from repro.graph import build

    captured = {}

    def record(num_vertices, sources, targets, **kwargs):
        captured["edges"] = (num_vertices, sources, targets)
        return build.build_graph(num_vertices, sources, targets, **kwargs)

    with mock.patch.object(datasets, "build_graph", record), \
            mock.patch.object(social, "build_graph", record), \
            mock.patch.object(webgraph, "build_graph", record):
        load_dataset(name)
    return captured["edges"]


def _large_edges():
    from repro.generate.datasets import SCALE_DATASETS
    from repro.generate.rmat import rmat_edges

    spec = SCALE_DATASETS["rmat-scale"]
    num_edges = int(_LARGE_VERTICES * spec.average_degree)
    sources, targets = rmat_edges(21, num_edges, seed=spec.seed)
    return _LARGE_VERTICES, sources, targets


def _measure(call, to_arrays) -> dict:
    """Median seconds of ``_REPEATS`` runs, one tracked peak, one digest."""
    seconds, digests = [], set()
    for _ in range(_REPEATS):
        started = time.perf_counter()
        result = call()
        seconds.append(time.perf_counter() - started)
        digests.add(_digest(to_arrays(result)))
        del result
    if len(digests) != 1:
        raise AssertionError("repeated runs returned different arrays")
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"seconds": statistics.median(seconds), "runs_s": seconds,
            "peak_memory_bytes": peak, "sha256": digests.pop()}


def _graph_cells(label: str, num_vertices: int, sources, targets) -> dict:
    from repro.graph import Graph, build_graph, compact_vertices, dedup_edges
    from repro.reorder import get_algorithm

    cells = {}

    def report(layer: str, cell: dict) -> None:
        cells[f"{label}/{layer}"] = cell
        print(f"{label:>12} {layer:>10}  {cell['seconds']:8.3f} s"
              f"  peak {cell['peak_memory_bytes'] / 1e6:8.1f} MB", flush=True)

    report("dedup", _measure(lambda: dedup_edges(sources, targets), lambda r: r))
    unique_src, unique_dst = dedup_edges(sources, targets)
    n, src, dst, _ = compact_vertices(num_vertices, unique_src, unique_dst)
    del unique_src, unique_dst
    report("from_edges", _measure(lambda: Graph.from_edges(n, src, dst), _graph_arrays))
    del src, dst
    report("build", _measure(
        lambda: build_graph(num_vertices, sources, targets).graph, _graph_arrays))
    graph = build_graph(num_vertices, sources, targets).graph
    relabeling = get_algorithm("dbg")(graph).relabeling
    report("permuted", _measure(lambda: graph.permuted(relabeling), _graph_arrays))
    for layer in ("dedup", "from_edges", "build", "permuted"):
        cells[f"{label}/{layer}"].update(
            vertices=graph.num_vertices, edges=graph.num_edges,
            input_edges=int(sources.shape[0]))
    return cells


def _speedups(runs: dict) -> list:
    """before/after seconds per cell, when both labels are recorded."""
    before, after = runs.get("before"), runs.get("after")
    if before is None or after is None:
        return []
    rows = []
    for key, old in before["cells"].items():
        new = after["cells"].get(key)
        if new is None:
            continue
        rows.append({
            "cell": key,
            "speedup": old["seconds"] / new["seconds"],
            "peak_ratio": new["peak_memory_bytes"] / old["peak_memory_bytes"],
            "identical": old["sha256"] == new["sha256"],
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="after",
                        help="key the results are stored under (default: after)")
    parser.add_argument("--skip-large", action="store_true",
                        help="leave out the 16.4M-edge ladder graph")
    args = parser.parse_args(argv)
    os.environ.setdefault("REPRO_SCALE", "0.0625")

    cells = {}
    for name in ("rmat-scale", "web-scale"):
        cells.update(_graph_cells(name, *_raw_edges(name)))
    if not args.skip_large:
        cells.update(_graph_cells("rmat-2^21", *_large_edges()))

    document = {"bench": "graph_build", "runs": {}}
    if _OUTPUT.exists():
        document = json.loads(_OUTPUT.read_text(encoding="utf-8"))
    document["description"] = (
        "dedup_edges, Graph.from_edges, build_graph and Graph.permuted (DBG "
        "relabeling) per graph: median seconds, tracemalloc peak, sha256 of "
        "the returned arrays"
    )
    document["runs"][args.label] = {
        "repro_scale": float(os.environ["REPRO_SCALE"]),
        "repeats": _REPEATS,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__},
        "cells": cells,
    }
    document["speedups"] = _speedups(document["runs"])
    _OUTPUT.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    for row in document["speedups"]:
        print(f"{row['cell']:>22}  x{row['speedup']:6.2f}"
              f"  peak x{row['peak_ratio']:.2f}  identical={row['identical']}")
    print(f"wrote {_OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
