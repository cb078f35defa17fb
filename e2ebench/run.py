"""End-to-end and per-layer benchmark of the reproduction.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload paper-cold --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --record-pins      # rewrite pins.json (trusted code only)

Workloads (README.md says why each was chosen):

* ``paper-cold``  -- the paper's per-dataset flow, cold, in one child process;
* ``sim-stream``  -- streamed SpMV simulation of ~10^6-edge graphs, in one child;
* ``serve-mixed`` -- an open loop against ``python -m repro.serve``.

With ``--trace 0`` the last stdout line is a JSON object with every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric
instead.  Outputs are checked against ``pins.json``; a mismatch, an
exception or a refused request is a failed operation.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Tuple

from common import (
    BENCH_DIR,
    END_TO_END,
    PER_LAYER,
    PINS_PATH,
    SCALE,
    SCRATCH,
    SETUP_REPEATS,
    SRC,
    WORKLOADS,
    child_env,
    host_probe_s,
    median,
    nearest_rank,
    reap,
    speed_factor,
)

#: Hard limit on one child, well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150.0


class FlowChild:
    """A flows.py child, started and waited on until it reports READY."""

    def __init__(self, workload: str, extra: List[str]) -> None:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "flows.py"), workload, *extra],
            stdout=subprocess.PIPE,
            env=child_env(),
            text=True,
            start_new_session=True,
        )
        # A hung child is killed, which ends the blocking reads below.
        self.watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()
        assert self.proc.stdout is not None
        ready = self.proc.stdout.readline().strip() == "READY"
        self.setup_s = time.perf_counter() - started
        if not ready:
            self.finish()
            raise RuntimeError(f"{workload} child failed during set-up")

    def finish(self) -> Tuple[List[str], int]:
        """Drain the child's stdout and wait for it: (lines, exit code)."""
        assert self.proc.stdout is not None
        lines = self.proc.stdout.read().splitlines()
        self.proc.stdout.close()
        code = reap(self.proc, timeout=CHILD_TIMEOUT_S)
        self.watchdog.cancel()
        return lines, code


def run_flow(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    setup_probe = host_probe_s()
    setup_raw = []
    for _ in range(SETUP_REPEATS[workload] - 1):
        child = FlowChild(workload, ["--setup-only"])
        child.finish()
        setup_raw.append(child.setup_s)
    args = ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    child = FlowChild(workload, args)
    setup_raw.append(child.setup_s)
    lines, code = child.finish()
    if code != 0 or not lines:
        raise RuntimeError(f"{workload} child exited with code {code}")
    raw = json.loads(lines[-1])

    out: Dict[str, Any] = {
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "mismatches": raw["mismatches"],
        "amortization": raw["amortization"],
    }
    # A pass repeats the same labelled operations in a seeded order.  Each
    # operation is timed as its median over the run's untraced passes,
    # which filters a slow stretch of the host out of the figures; one
    # pass's wall time is the sum of these medians and the latency
    # percentiles are taken over them.  Every time is at reference host
    # speed (calibrate.py); the raw figure is printed beside it.
    factors = [speed_factor(around) for around in raw["probes"]]
    # Set-up is scaled by the probes just before and just after it.
    setup_factor = speed_factor([setup_probe, raw["probes"][0][0]])

    def op_ms(scale: List[float]) -> List[float]:
        passes = [{k: v * 1e3 * f for k, v in ops.items()} for ops, f in zip(raw["ops"], scale)]
        labels = sorted({label for ops in passes for label in ops})
        return [median(ops[l] for ops in passes if l in ops) for l in labels]

    ops = op_ms(factors)
    wall = sum(ops) / 1e3
    out["raw"] = {"setup_s": median(setup_raw), "wall_s": sum(op_ms([1.0] * len(factors))) / 1e3}
    if trace:
        out["per_layer"] = flow_layers(raw, factors)
    else:
        out["end_to_end"] = {
            "setup_s": median(setup_raw) * setup_factor,
            "wall_s": wall,
            "peak_rss_mb": raw["maxrss_kb"] / 1024.0,
            "p50_ms": nearest_rank(ops, 50),
            "p99_ms": nearest_rank(ops, 99),
            "sustained_rps": len(ops) / wall,
        }
    return out


def flow_layers(raw: Dict[str, Any], untraced_factors: List[float]) -> Dict[str, float]:
    """Mean per traced pass of each layer figure, plus the derived ratios.

    Layer times are host seconds; the two ``trace.*`` ratios compare
    traced with untraced passes at reference host speed.
    """
    passes = raw["layers"]
    keys = sorted({key for layer in passes for key in layer})
    mean = {key: sum(p.get(key, 0.0) for p in passes) / len(passes) for key in keys}
    out: Dict[str, float] = {}
    for key, value in mean.items():
        if key.startswith("reorder.") and key.endswith(".edges"):
            seconds = mean.get(key[: -len(".edges")] + ".s", 0.0)
            out[key + "_per_s"] = value / seconds if seconds else 0.0
        else:
            out[key] = value
    if raw["generate_s"]:
        out.setdefault("generate.s", raw["generate_s"])
        out["generate.edges_per_s"] = raw["generate_edges"] / raw["generate_s"]
    sim_s = out.get("sim.s", 0.0)
    out["sim.accesses_per_s"] = out.get("sim.accesses", 0.0) / sim_s if sim_s else 0.0
    batches = out.get("cache.kernel_batches", 0.0) + out.get("cache.reference_batches", 0.0)
    out["cache.kernel_ratio"] = out.get("cache.kernel_batches", 0.0) / batches if batches else 0.0

    def layer_seconds(layer: Dict[str, float]) -> Dict[str, float]:
        return {
            "generate": layer.get("generate.s", 0.0),
            "reorder": sum(
                v for k, v in layer.items() if k.startswith("reorder.") and k.endswith(".s")
            ),
            "reorder_mem": sum(v for k, v in layer.items() if k.startswith("reorder_mem.")),
            "graph": layer.get("graph.permute.s", 0.0),
            "sim": layer.get("sim.s", 0.0),
            "core": layer.get("core.s", 0.0),
        }

    traced_total = sum(raw["traced_passes"])
    for name in layer_seconds({}):
        out[f"share.{name}"] = sum(layer_seconds(p)[name] for p in passes) / traced_total

    traced_factors = [speed_factor(around) for around in raw["traced_probes"]]
    untraced_wall = median(
        t * f for t, f in zip(raw["untraced_passes"], untraced_factors)
    )
    traced_wall = median(t * f for t, f in zip(raw["traced_passes"], traced_factors))
    accounted = [
        (sum(layer_seconds(p).values()) + p.get("bench.check.s", 0.0)) * f
        for p, f in zip(passes, traced_factors)
    ]
    out["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    out["trace.accounted_ratio"] = median(accounted) / untraced_wall
    return out


def record_pins() -> int:
    """Regenerate pins.json from the code in this checkout."""
    sys.path.insert(0, str(SRC))
    import serve_mixed

    pins: Dict[str, Any] = {}
    SCRATCH.mkdir(exist_ok=True)
    for workload in ("paper-cold", "sim-stream"):
        target = SCRATCH / f"pins-{workload}.json"
        _lines, code = FlowChild(workload, ["--record", str(target)]).finish()
        if code != 0:
            return code
        items = json.loads(target.read_text(encoding="utf-8"))
        target.unlink()
        pins[workload] = {"scale": SCALE, "items": items}
    pins["serve-mixed"] = {
        "scale": SCALE,
        "items": serve_mixed.record(),
    }
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def print_amortization(rows: List[Dict[str, Any]]) -> None:
    print("Reorder amortization on paper-cold (reported, not gated).")
    print("Traversal times come from the simulator's timing model, checked only")
    print("against the exact LRU model in core/validation.py, never against hardware.")
    print(f"{'dataset':10s} {'RA':10s} {'reorder s':>10s} {'saved ms/trav':>14s} {'break-even':>11s}")
    for row in rows:
        even = row["break_even_traversals"]
        print(
            f"{row['dataset']:10s} {row['algorithm']:10s} {row['reorder_s']:10.4f} "
            f"{row['saved_ms_per_traversal']:14.6f} "
            f"{'never' if even is None else f'{even:11.0f}':>11s}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-pins", action="store_true")
    args = parser.parse_args()

    # A shell that starts this in the background may leave SIGINT ignored,
    # and children inherit that; the service stops cleanly only on SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.record_pins:
        return record_pins()
    if args.workload is None:
        parser.error("--workload is required")

    SCRATCH.mkdir(exist_ok=True)
    trace = args.trace == 1
    if args.workload == "serve-mixed":
        sys.path.insert(0, str(SRC))
        import serve_mixed

        result = serve_mixed.run(args.workload, args.seed, trace)
    else:
        result = run_flow(args.workload, args.seed, args.seconds, trace)

    for mismatch in result["mismatches"]:
        print(f"MISMATCH {mismatch}", file=sys.stderr)
    if result.get("amortization"):
        print_amortization(result["amortization"])
    if trace:
        layers = result["per_layer"]
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit, _better in PER_LAYER
        }
    else:
        values = result["end_to_end"]
        metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}
    raw = result.get("raw", {})
    for name, entry in metrics.items():
        line = f"{name:32s} {entry['value']:.6g} {entry['unit']}"
        if not trace and name in raw:
            line += f"  (raw host time {raw[name]:.6g})"
        print(line)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
