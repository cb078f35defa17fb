"""Host-speed probe: a fixed kernel owned by the benchmark, not the program.

A shared host drifts in speed by 10-30 % over minutes, and every timing
of a run drifts with it.  Each run therefore times this fixed kernel a
few times and reports its timings at the speed of a reference host
whose probe takes :data:`REF_PROBE_S`::

    normalized = raw * REF_PROBE_S / median(probe seconds of the run)

The kernel touches no program code, so a change to the program moves
the normalized figure exactly as it moves the raw one, while a slow
stretch of the host moves both the raw figure and the probe and cancels
out.  The kernel is memory-bound NumPy work (a stable argsort of 2 Mi
int64 values and a gather) plus an interpreter-bound dict loop, the two
kinds of work the program does.  It runs in its own process, started
with ``python3 calibrate.py``, so it never raises the peak memory of a
measured process; it prints the kernel's seconds, measured after one
warm-up round.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe seconds on the reference host (about this value on the 2-core
#: container the benchmark was written on).
REF_PROBE_S = 0.16


def kernel(data: np.ndarray) -> None:
    order = np.argsort(data, kind="stable")
    np.bincount(data[order[: data.size // 2]] & 0xFFFF)
    table: dict = {}
    for i in range(40_000):
        table[i & 0x3FF] = table.get(i & 0x3FF, 0) + i


def probe_seconds(rounds: int = 3) -> float:
    """Mean seconds of ``rounds`` kernel runs, after one warm-up run."""
    data = np.arange(1 << 21, dtype=np.int64)
    data *= 2654435761
    data %= 1 << 20
    kernel(data)
    started = time.perf_counter()
    for _ in range(rounds):
        kernel(data)
    return (time.perf_counter() - started) / rounds


if __name__ == "__main__":
    print(f"{probe_seconds():.9f}")
