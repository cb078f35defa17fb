"""Child process of the closed-loop workloads: ``paper-cold`` and ``sim-stream``.

``run.py`` starts this file in a fresh interpreter with ``src`` on
``PYTHONPATH`` and ``REPRO_SCALE`` set, so the child's ``ru_maxrss`` is
the workload's own peak memory.  Protocol on stdout: one ``READY`` line
once set-up is done (the parent times spawn -> ``READY`` as ``setup_s``),
then one JSON line with the raw measurements.  ``--setup-only`` exits
after ``READY``; ``--record`` runs one untimed pass and writes the
observed outputs as the workload's pins.

Every call into the program goes through a public entry point and, in a
traced pass, sits inside one of the benchmark's own ``bench.*`` spans;
the program's existing ``sim.*`` spans then nest under them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import resource
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

import numpy as np

from common import PinChecker, digest_bytes, host_probe_s, union_length

from repro import obs
from repro.core import (
    aid_degree_distribution,
    ecs_from_result,
    hub_data_misses,
    miss_rate_degree_distribution,
)
from repro.generate import load_dataset
from repro.graph.graph import Graph
from repro.obs import metrics as obs_metrics
from repro.obs import span
from repro.reorder import get_algorithm
from repro.sim import SimulationConfig, simulate_spmv, simulate_spmv_streamed

PAPER_DATASETS = ("twtr-mini", "sk-mini")
PAPER_RAS = ("identity", "slashburn", "gorder", "rabbit", "rcm", "hubsort", "dbg")
#: The RAs Table II re-runs under tracemalloc for its memory column.
MEMORY_RAS = ("slashburn", "gorder", "rabbit")

STREAM_DATASETS = ("rmat-scale", "web-scale")
STREAM_RAS = ("identity", "dbg")

#: Interpreter start-up of one probe process, on top of its kernel time.
PROBE_OVERHEAD_S = 0.5

#: Span self times reported for the simulator's own phases.
SIM_PHASES = ("sim.trace", "sim.interleave", "sim.cache", "sim.tlb", "sim.kernel")


def graph_digest(graph: Graph) -> str:
    adj = graph.out_adj
    return digest_bytes(
        np.ascontiguousarray(adj.offsets, dtype=np.int64).tobytes(),
        np.ascontiguousarray(adj.targets, dtype=np.int64).tobytes(),
    )


def relabeling_digest(relabeling: np.ndarray) -> str:
    return digest_bytes(np.ascontiguousarray(relabeling, dtype=np.int64).tobytes())


def scan_config(graph: Graph) -> SimulationConfig:
    """The paper flow's config: scaled DRRIP L3, a TLB and ECS scans."""
    base = SimulationConfig.scaled_for(graph)
    approx_len = graph.num_edges + graph.num_vertices // 4
    return dataclasses.replace(base, scan_interval=max(1, approx_len // 64))


class Flow:
    """One closed-loop workload: its set-up, one pass, and its timings."""

    def __init__(self, workload: str, seed: int, checker: PinChecker) -> None:
        self.workload = workload
        self.rng = random.Random(seed)
        self.checker = checker
        self.ops: Dict[str, float] = {}
        self.graphs: Dict[str, Graph] = {}
        self.generate_s = 0.0
        self.generate_edges = 0
        # (dataset, ra) -> untracked reorder seconds / modelled traversal ms
        self.reorder_s: Dict[tuple, List[float]] = defaultdict(list)
        self.traversal_ms: Dict[tuple, float] = {}

    def setup(self) -> None:
        if self.workload == "sim-stream":
            for name in STREAM_DATASETS:
                self.graphs[name] = self._generate(name)

    def _generate(self, name: str) -> Graph:
        started = time.perf_counter()
        with span("bench.generate", dataset=name):
            graph = load_dataset(name)
        self.generate_s += time.perf_counter() - started
        self.generate_edges += graph.num_edges
        self.checker.check(f"{name}/graph", {"graph_sha256": graph_digest(graph)})
        return graph

    def _op(self, label: str, body: Callable[[], None]) -> None:
        started = time.perf_counter()
        try:
            body()
        except Exception as exc:  # one failed operation must not end the run
            self.checker.fail(label, f"{type(exc).__name__}: {exc}")
        self.ops[label] = time.perf_counter() - started

    def run_pass(self) -> None:
        if self.workload == "paper-cold":
            self._paper_pass()
        else:
            self._stream_pass()

    # -- paper-cold ------------------------------------------------------

    def _paper_pass(self) -> None:
        datasets = list(PAPER_DATASETS)
        self.rng.shuffle(datasets)
        for name in datasets:
            graphs: Dict[str, Graph] = {}

            def generate() -> None:
                graphs["g"] = self._generate(name)

            self._op(f"{name}/generate", generate)
            if "g" not in graphs:
                continue
            ras = list(PAPER_RAS)
            self.rng.shuffle(ras)
            for ra in ras:
                self._op(
                    f"{name}/{ra}",
                    lambda ra=ra: self._paper_item(name, graphs["g"], ra),
                )

    def _paper_item(self, name: str, graph: Graph, ra: str) -> None:
        started = time.perf_counter()
        with span("bench.reorder", algorithm=ra, edges=graph.num_edges):
            result = get_algorithm(ra)(graph)
        self.reorder_s[(name, ra)].append(time.perf_counter() - started)
        with span("bench.permute"):
            reordered = result.apply(graph)
        observed: Dict[str, Any] = {
            "relabeling_sha256": relabeling_digest(result.relabeling)
        }
        if ra in MEMORY_RAS:
            with span("bench.reorder_mem", algorithm=ra, edges=graph.num_edges):
                tracked = get_algorithm(ra)(graph, track_memory=True)
            observed["tracked_relabeling_sha256"] = relabeling_digest(
                tracked.relabeling
            )
        with span("bench.sim"):
            sim = simulate_spmv(reordered, scan_config(reordered))
        with span("bench.core"):
            aid = aid_degree_distribution(reordered)
            misses = miss_rate_degree_distribution(sim)
            ecs = ecs_from_result(sim)
            hubs = hub_data_misses(sim, int(graph.average_degree))
            traversal_ms = sim.traversal_time_ms()
        with span("bench.check"):
            counts = aid.vertex_counts
            mean_aid = float(
                np.nansum(aid.mean_aid * counts) / max(1, int(counts.sum()))
            )
            self.traversal_ms[(name, ra)] = traversal_ms
            observed.update(
                l3_misses=int(sim.l3_misses),
                tlb_misses=int(sim.tlb_misses),
                random_misses=int(sim.random_misses),
                hub_misses=int(hubs.misses),
                miss_rate_percent=float(misses.overall_miss_rate_percent),
                ecs_percent=float(ecs.average_percent),
                mean_aid=mean_aid,
                traversal_ms=float(traversal_ms),
            )
            self.checker.check(f"{name}/{ra}", observed)

    # -- sim-stream ------------------------------------------------------

    def _stream_pass(self) -> None:
        items = [(name, ra) for name in STREAM_DATASETS for ra in STREAM_RAS]
        self.rng.shuffle(items)
        for name, ra in items:
            self._op(
                f"{name}/{ra}",
                lambda name=name, ra=ra: self._stream_item(name, self.graphs[name], ra),
            )

    def _stream_item(self, name: str, graph: Graph, ra: str) -> None:
        with span("bench.reorder", algorithm=ra, edges=graph.num_edges):
            result = get_algorithm(ra)(graph)
        with span("bench.permute"):
            reordered = result.apply(graph)
        with span("bench.sim"):
            sim = simulate_spmv_streamed(reordered, SimulationConfig.scaled_for(reordered))
        with span("bench.check"):
            self.checker.check(
                f"{name}/{ra}",
                {
                    "relabeling_sha256": relabeling_digest(result.relabeling),
                    "l3_misses": int(sim.l3_misses),
                    "tlb_misses": int(sim.tlb_misses),
                    "random_misses": int(sim.random_misses),
                    "accesses": int(sim.num_accesses),
                },
            )

    # -- reporting -------------------------------------------------------

    def amortization(self) -> List[Dict[str, Any]]:
        """Faldu et al.'s test: does the reorder cost pay for itself?"""
        rows = []
        for (name, ra), times in sorted(self.reorder_s.items()):
            base = self.traversal_ms.get((name, "identity"))
            own = self.traversal_ms.get((name, ra))
            if ra == "identity" or base is None or own is None:
                continue
            reorder_s = float(np.median(times))
            saved_ms = base - own
            rows.append(
                {
                    "dataset": name,
                    "algorithm": ra,
                    "reorder_s": reorder_s,
                    "traversal_ms": own,
                    "saved_ms_per_traversal": saved_ms,
                    "break_even_traversals": (
                        reorder_s * 1e3 / saved_ms if saved_ms > 0 else None
                    ),
                }
            )
        return rows


def layer_metrics(spans: List[obs.SpanRecord], counters: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer figures of one traced pass, from spans and counter totals."""
    children: Dict[int, List[obs.SpanRecord]] = defaultdict(list)
    for record in spans:
        children[record.parent_id].append(record)

    def self_s(record: obs.SpanRecord) -> float:
        covered = union_length(
            [(c.start_s, c.end_s) for c in children[record.span_id]],
            record.start_s,
            record.end_s,
        )
        return record.duration_s - covered

    out: Dict[str, float] = defaultdict(float)
    for record in spans:
        name, attrs = record.name, record.attrs
        if name == "bench.reorder":
            out[f"reorder.{attrs['algorithm']}.s"] += record.duration_s
            out[f"reorder.{attrs['algorithm']}.edges"] += attrs["edges"]
        elif name == "bench.reorder_mem":
            out[f"reorder_mem.{attrs['algorithm']}.s"] += record.duration_s
        elif name == "bench.permute":
            out["graph.permute.s"] += record.duration_s
        elif name == "bench.sim":
            out["sim.s"] += record.duration_s
        elif name == "bench.core":
            out["core.s"] += record.duration_s
        elif name == "bench.check":
            out["bench.check.s"] += record.duration_s
        elif name == "bench.generate":
            out["generate.s"] += record.duration_s
        elif name in SIM_PHASES:
            out[f"{name}.self_s"] += self_s(record)
            if name == "sim.kernel" and attrs.get("policy") == "drrip":
                out["cache.drrip_kernel_batches"] += 0 if attrs.get("declined") else 1

    def counter(name: str) -> float:
        return float(counters.get(name, {}).get("value", 0))

    out["sim.accesses"] = counter("sim.accesses")
    out["cache.kernel_batches"] = counter("cache.kernel_batches")
    out["cache.reference_batches"] = counter("cache.reference_batches")
    return dict(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=("paper-cold", "sim-stream"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", default=None, metavar="PATH")
    args = parser.parse_args()

    checker = PinChecker(args.workload, record=args.record is not None)
    flow = Flow(args.workload, args.seed, checker)
    flow.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.record is not None:
        flow.run_pass()
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(checker.recorded, handle, indent=1, sort_keys=True)
        return 0 if checker.failed == 0 else 1

    # Passes alternate untraced/traced in a traced run, after a warm-up
    # pass, so the tracing overhead is measured against the same code in
    # the same process.
    # The host-speed probe runs before every pass and after the last one;
    # each untraced pass is scaled by the probes on either side of it.
    untraced: List[float] = []
    traced: List[float] = []
    untraced_ops: List[Dict[str, float]] = []
    untraced_at: List[int] = []
    traced_at: List[int] = []
    layers: List[Dict[str, float]] = []
    probes: List[float] = []
    started = time.perf_counter()
    if args.trace == 1:
        flow.run_pass()  # warm-up: the first pass pays one-off costs
    while True:
        tracing = args.trace == 1 and len(traced) < len(untraced)
        probes.append(host_probe_s())
        flow.ops = {}
        t0 = time.perf_counter()
        if tracing:
            with obs.recording():
                flow.run_pass()
                pass_s = time.perf_counter() - t0
                layers.append(
                    layer_metrics(obs.completed_spans(), obs_metrics.registry.snapshot())
                )
            traced.append(pass_s)
            traced_at.append(len(probes) - 1)
        else:
            flow.run_pass()
            untraced.append(time.perf_counter() - t0)
            untraced_ops.append(flow.ops)
            untraced_at.append(len(probes) - 1)
        elapsed = time.perf_counter() - started
        done = len(untraced) >= 1 and (args.trace == 0 or len(traced) >= 1)
        typical = float(np.median(untraced + traced)) + probes[-1] + PROBE_OVERHEAD_S
        if done and elapsed + typical > args.seconds:
            break
    probes.append(host_probe_s())

    def around(at: List[int]) -> List[List[float]]:
        return [[probes[i], probes[i + 1]] for i in at]

    # This process's own peak; the probe processes are not counted.
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    print(
        json.dumps(
            {
                "untraced_passes": untraced,
                "traced_passes": traced,
                "ops": untraced_ops,
                "probes": around(untraced_at),
                "traced_probes": around(traced_at),
                "maxrss_kb": maxrss_kb,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "mismatches": checker.mismatches,
                "layers": layers,
                "generate_s": flow.generate_s,
                "generate_edges": flow.generate_edges,
                "amortization": flow.amortization(),
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
