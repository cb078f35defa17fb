"""Cost of the reorder layer, untracked and under Table II's tracemalloc.

Table II reports each studied RA's preprocessing time and peak memory;
the memory column comes from a second run with ``track_memory=True``,
which hooks every allocation through :mod:`tracemalloc`.  This bench
records, per RA in {slashburn, gorder, rabbit} and per simulation
dataset (``repro.bench.workloads.SIM_DATASETS``), the untracked
seconds, the tracked seconds and the tracemalloc peak, plus the
relabeling sha256 of both runs (which must agree).

Results go to ``BENCH_reorder.json`` at the repo root, under a label
(default ``after``).  Other labels already in the file are kept, so a
before/after record is two runs of this script, the first with the
older checkout's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=../old/src python benchmarks/bench_reorder_overhead.py --label before
    PYTHONPATH=src python benchmarks/bench_reorder_overhead.py --label after

When both labels are present the file also carries the after/before
speedup of every cell.  The datasets are generated at ``REPRO_SCALE``
(0.0625 unless set, the scale the end-to-end ``paper-cold`` workload
runs at).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from repro.bench.workloads import SIM_DATASETS
from repro.generate import load_dataset
from repro.reorder import get_algorithm

_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_reorder.json"
_ALGORITHMS = ("slashburn", "gorder", "rabbit")
#: Runs per cell; seconds are the median (host timings swing by tens of
#: percent run to run, peaks and digests are exact).
_REPEATS = 5


def _digest(relabeling: np.ndarray) -> str:
    data = np.ascontiguousarray(relabeling, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()


def _measure(graph, algorithm: str) -> dict:
    """Median seconds of ``_REPEATS`` untracked and tracked runs."""
    alg = get_algorithm(algorithm)
    untracked, tracked, peaks, digests = [], [], set(), set()
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        plain = alg(graph)
        untracked.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        memory = alg(graph, track_memory=True)
        tracked.append(time.perf_counter() - t0)
        peaks.add(memory.peak_memory_bytes)
        digests.update((_digest(plain.relabeling), _digest(memory.relabeling)))
    if len(digests) != 1:
        raise AssertionError(f"{algorithm}: tracked and plain relabelings differ")
    untracked_s = statistics.median(untracked)
    tracked_s = statistics.median(tracked)
    return {
        "untracked_s": untracked_s,
        "tracked_s": tracked_s,
        "tracking_slowdown": tracked_s / untracked_s,
        "peak_memory_bytes": max(peaks),
        "relabeling_sha256": digests.pop(),
    }


def _speedups(runs: dict) -> list:
    """after/before ratios per cell, when both labels are recorded."""
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
            "untracked_speedup": old["untracked_s"] / new["untracked_s"],
            "tracked_speedup": old["tracked_s"] / new["tracked_s"],
            "peak_ratio": new["peak_memory_bytes"] / old["peak_memory_bytes"],
            "relabeling_identical":
                old["relabeling_sha256"] == new["relabeling_sha256"],
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="after",
                        help="key the results are stored under (default: after)")
    args = parser.parse_args(argv)
    os.environ.setdefault("REPRO_SCALE", "0.0625")

    cells = {}
    for dataset in SIM_DATASETS:
        graph = load_dataset(dataset)
        for algorithm in _ALGORITHMS:
            cell = _measure(graph, algorithm)
            cell.update(vertices=graph.num_vertices, edges=graph.num_edges)
            cells[f"{dataset}/{algorithm}"] = cell
            print(f"{dataset:>10} {algorithm:>9}  untracked {cell['untracked_s']:7.3f} s"
                  f"  tracked {cell['tracked_s']:7.3f} s"
                  f"  peak {cell['peak_memory_bytes'] / 1e6:7.3f} MB")

    document = {"bench": "reorder_overhead", "runs": {}}
    if _OUTPUT.exists():
        document = json.loads(_OUTPUT.read_text(encoding="utf-8"))
    document["description"] = (
        "Table II RAs per simulation dataset: median untracked and "
        "track_memory=True seconds, tracemalloc peak, relabeling sha256"
    )
    document["runs"][args.label] = {
        "repro_scale": float(os.environ["REPRO_SCALE"]),
        "repeats": _REPEATS,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__},
        "total_untracked_s": sum(c["untracked_s"] for c in cells.values()),
        "total_tracked_s": sum(c["tracked_s"] for c in cells.values()),
        "cells": cells,
    }
    document["speedups"] = _speedups(document["runs"])
    _OUTPUT.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    for row in document["speedups"]:
        print(f"{row['cell']:>20}  untracked x{row['untracked_speedup']:.2f}"
              f"  tracked x{row['tracked_speedup']:.2f}"
              f"  peak x{row['peak_ratio']:.2f}"
              f"  identical={row['relabeling_identical']}")
    print(f"wrote {_OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
