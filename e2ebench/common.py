"""Helpers shared by the benchmark's parent process and its children.

Nothing here imports :mod:`repro`: the parent must be able to load this
module (and fail cleanly) in a directory that holds only the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: The checkout root (the benchmark lives one level below it).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
PINS_PATH = BENCH_DIR / "pins.json"

#: Where runs keep scratch state (server stores); listed in .gitignore.
SCRATCH = ROOT / ".e2ebench-tmp"

WORKLOADS = ("paper-cold", "sim-stream", "serve-mixed")

#: ``REPRO_SCALE`` every workload runs at (see README.md for the sizes).
SCALE = 0.0625

#: How many times one run repeats its set-up; ``setup_s`` is the median.
#: paper-cold's set-up is only interpreter start and imports, so it is
#: short and noisy and cheap to repeat more often.
SETUP_REPEATS = {"paper-cold": 7, "sim-stream": 3, "serve-mixed": 3}


#: Every per-layer metric, printed by every traced run (0 where the
#: workload does not exercise the layer): (name, unit, better).
PER_LAYER_RAS = ("slashburn", "gorder", "rabbit", "rcm", "hubsort", "dbg")
PER_LAYER = (
    [("generate.s", "s", "lower"), ("generate.edges_per_s", "edges/s", "higher")]
    + [
        metric
        for ra in PER_LAYER_RAS
        for metric in (
            (f"reorder.{ra}.s", "s", "lower"),
            (f"reorder.{ra}.edges_per_s", "edges/s", "higher"),
        )
    ]
    + [(f"reorder_mem.{ra}.s", "s", "lower") for ra in ("slashburn", "gorder", "rabbit")]
    + [
        ("graph.permute.s", "s", "lower"),
        ("sim.s", "s", "lower"),
        ("sim.accesses", "count", "lower"),
        ("sim.accesses_per_s", "1/s", "higher"),
        ("sim.trace.self_s", "s", "lower"),
        ("sim.interleave.self_s", "s", "lower"),
        ("sim.cache.self_s", "s", "lower"),
        ("sim.tlb.self_s", "s", "lower"),
        ("sim.kernel.self_s", "s", "lower"),
        ("cache.kernel_ratio", "ratio", "higher"),
        ("cache.drrip_kernel_batches", "count", "higher"),
        ("core.s", "s", "lower"),
        ("store.hit_ratio", "ratio", "higher"),
        ("store.write_share", "ratio", "lower"),
        ("store.bytes_written", "bytes", "lower"),
        ("store.get.ms_per_mb", "ms/MB", "lower"),
        ("serve.warm.p50_ms", "ms", "lower"),
        ("serve.cold.p50_ms", "ms", "lower"),
        ("serve.server.p50_ms", "ms", "lower"),
        ("serve.coalesced_ratio", "ratio", "higher"),
        ("serve.rejected", "count", "lower"),
        ("loadgen.lag.p99_ms", "ms", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.accounted_ratio", "ratio", "higher"),
    ]
    + [
        (f"share.{layer}", "ratio", "lower")
        for layer in ("generate", "reorder", "reorder_mem", "graph", "sim", "core")
    ]
)

#: End-to-end metrics every untraced run prints: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("sustained_rps", "1/s"),
)


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_SCALE"] = str(SCALE)
    return env


def reap(proc: "subprocess.Popen", timeout: float) -> int:
    """Wait for ``proc``; past ``timeout`` kill its process group first."""
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        return proc.wait()


def host_probe_s() -> float:
    """Seconds of the host-speed probe (calibrate.py), in its own process."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "calibrate.py")],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip())


def speed_factor(probes: Sequence[float]) -> float:
    """Multiplier taking a run's times to the reference host's speed."""
    from calibrate import REF_PROBE_S

    return REF_PROBE_S / median(probes)


def cpu_ticks() -> Tuple[int, int]:
    """(busy, stolen) CPU ticks of the whole machine, from ``/proc/stat``.

    On a virtual machine, stolen ticks are time a runnable virtual CPU
    waited while the hypervisor ran other guests.  Without ``/proc/stat``
    or its steal field both read 0, and :func:`unstolen` then reads 1.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq = fields[:7]
    steal = fields[7] if len(fields) > 7 else 0
    return user + nice + system + irq + softirq, steal


def unstolen(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Share of the CPU time wanted between two :func:`cpu_ticks` readings
    that the machine was given rather than had stolen by its hypervisor."""
    busy, stolen = after[0] - before[0], after[1] - before[1]
    return busy / (busy + stolen) if busy + stolen > 0 else 1.0


def digest_bytes(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def digest_json(payload: Any) -> str:
    """sha256 of a canonical JSON encoding (sorted keys, exact floats)."""
    return digest_bytes(json.dumps(payload, sort_keys=True).encode("utf-8"))


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the definition ``repro.obs`` uses)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return float(ordered[rank - 1])


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def union_length(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if b <= a:
            continue
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


class PinChecker:
    """Compares observed outputs with the pinned reference outputs.

    In record mode it collects the observations instead, so the pins
    file can be regenerated from a trusted commit.
    """

    def __init__(self, workload: str, *, record: bool = False) -> None:
        self.record = record
        self.recorded: Dict[str, Dict[str, Any]] = {}
        self.expected: Dict[str, Dict[str, Any]] = {}
        if not record:
            pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
            self.expected = pins[workload]["items"]
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def check(self, item: str, observed: Dict[str, Any]) -> bool:
        self.attempted += 1
        if self.record:
            self.recorded[item] = observed
            return True
        problems = _compare(self.expected.get(item), observed)
        if problems:
            self.failed += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(f"{item}: {problems}")
            return False
        return True

    def fail(self, item: str, reason: str) -> None:
        """Count an operation that raised or was refused."""
        self.attempted += 1
        self.failed += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(f"{item}: {reason}")


def _compare(expected: Optional[Dict[str, Any]], observed: Dict[str, Any]) -> str:
    if expected is None:
        return "no pinned reference"
    problems = []
    for field in sorted(set(expected) | set(observed)):
        want, got = expected.get(field), observed.get(field)
        if isinstance(want, float) or isinstance(got, float):
            same = (
                isinstance(want, (int, float))
                and isinstance(got, (int, float))
                and math.isclose(want, got, rel_tol=1e-9, abs_tol=1e-12)
            )
        else:
            same = want == got
        if not same:
            problems.append(f"{field} pinned {want!r} got {got!r}")
    return "; ".join(problems)
