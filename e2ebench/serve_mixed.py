"""serve-mixed: an open loop against the real service.

The service runs as a child process (``python -m repro.serve serve
--executor process --workers 2``) on a store this run pre-warms during
set-up.  This process is the load generator: a seeded Poisson schedule
at a fixed offered rate over at most ``nproc`` keep-alive connections,
dealing jobs from a shuffled deck that holds each job its Zipf share
over a fixed popularity ranking of {reorder, simulate, analyze} x four
datasets x five RAs x three ``pressure`` values.  There are no retries: a non-200 answer is a
failed operation, and so is a response whose result digest differs
from the pinned one.  Latency runs from each request's due time, so a
stall also delays every request queued behind it.

``repro.serve.loadgen.run_load`` is closed-loop and retries on 429, so
it cannot time this workload; this module drives the HTTP API directly.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (
    SCRATCH,
    SETUP_REPEATS,
    PinChecker,
    child_env,
    cpu_ticks,
    digest_json,
    median,
    nearest_rank,
    reap,
    unstolen,
)

from repro import obs
from repro.errors import ServeError
from repro.serve.http import HttpClient
from repro.store.store import ArtifactStore

DATASETS = ("twtr-mini", "frnd-mini", "sk-mini", "uu-mini")
ALGORITHMS = ("identity", "degree", "dbg", "hubsort", "slashburn")
#: Analyze jobs use their own pressure grid, so no analyze job shares a
#: simulation stage with a simulate job and every tail job writes one.
PRESSURES = {"simulate": (0.04, 0.08, 0.16), "analyze": (0.03, 0.06, 0.12)}
ZIPF_S = 1.1
#: The popularity ranking is fixed; the run seed draws from it.
RANKING_SEED = 2021

#: The fixed offered rate that ``p50_ms``/``p99_ms`` are measured at.
FIXED_RATE = 40.0
FIXED_REQUESTS = 1200
#: The fixed-rate phase runs in this many parts, and each part's
#: latencies are taken net of the CPU time stolen during it.
FIXED_PARTS = 4
LATENCY_LIMIT_MS = 1000.0
#: Closed loops over ``PROBE_SEGMENTS`` decks of ``PROBE_REQUESTS`` cards
#: measure the service's capacity (the median of the segments);
#: open-loop steps then run at these fractions of it, and the first that
#: meets the latency limit without a growing backlog gives
#: ``sustained_rps``.
PROBE_SEGMENTS = 5
PROBE_REQUESTS = 200
STEP_S = 2.5
STEP_FRACTIONS = (0.8, 0.7, 0.6, 0.5, 0.4, 0.3)

CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
WORKERS = 2
BOOT_TIMEOUT_S = 60.0

Job = Tuple[str, str, str, Optional[float]]


def ranked_jobs() -> List[Job]:
    jobs: List[Job] = [("reorder", d, a, None) for d in DATASETS for a in ALGORITHMS]
    jobs += [
        (kind, d, a, p)
        for kind in ("simulate", "analyze")
        for d in DATASETS
        for a in ALGORITHMS
        for p in PRESSURES[kind]
    ]
    random.Random(RANKING_SEED).shuffle(jobs)
    return jobs


def job_id(job: Job) -> str:
    kind, dataset, algorithm, pressure = job
    return f"{kind}/{dataset}/{algorithm}/{'-' if pressure is None else pressure}"


def job_payload(job: Job) -> Dict[str, Any]:
    _kind, dataset, algorithm, pressure = job
    payload: Dict[str, Any] = {"dataset": dataset, "algorithm": algorithm}
    if pressure is not None:
        payload["pressure"] = pressure
    return payload


def result_digest(body: Dict[str, Any]) -> str:
    """Digest of a response's result, minus its host-timing field."""
    result = {
        k: v for k, v in body.get("result", {}).items() if k != "preprocessing_seconds"
    }
    return digest_json(result)


def zipf_quotas(total: int = FIXED_REQUESTS) -> List[Tuple[Job, int]]:
    """Each ranked job with its share of ``total`` Zipf draws.

    Largest-remainder rounding: the quotas sum to ``total``.
    """
    jobs = ranked_jobs()
    weights = [(rank + 1) ** -ZIPF_S for rank in range(len(jobs))]
    shares = [total * w / sum(weights) for w in weights]
    quotas = [int(share) for share in shares]
    by_remainder = sorted(range(len(jobs)), key=lambda i: (quotas[i] - shares[i], i))
    for i in by_remainder[: total - sum(quotas)]:
        quotas[i] += 1
    return list(zip(jobs, quotas))


def prewarm_jobs() -> List[Job]:
    """Every reorder job (the graph and reordering stages of all jobs)
    and every job drawn more than once per deck.  The jobs drawn once
    are left cold: each writes a new simulation stage somewhere in the
    run, so store writes run beside store reads."""
    return [job for job, quota in zipf_quotas() if not is_cold(job, quota)]


def is_cold(job: Job, quota: int) -> bool:
    return job[0] != "reorder" and quota == 1


class ZipfDeck:
    """The Zipf mix as a deck: each job appears its Zipf quota of times.

    The seed shuffles the deck, so every run sends the same multiset of
    jobs in its own order and at its own times; run-to-run spread then
    comes from the arrangement alone.  The cold cards are spread over
    the deck, one at a seeded place in each of as many equal strata, so
    that how many cold jobs happen to run at once does not vary between
    runs and decide the latency tail.
    """

    def __init__(self, rng: random.Random, size: int = FIXED_REQUESTS) -> None:
        quotas = zipf_quotas(size)
        self.cold = [job for job, quota in quotas if is_cold(job, quota)]
        self.warm = [job for job, quota in quotas if not is_cold(job, quota) for _ in range(quota)]
        self.cards = self.cold + self.warm
        self.rng = rng
        self.hand: List[Job] = []

    def shuffled(self) -> List[Job]:
        warm, cold = list(self.warm), list(self.cold)
        self.rng.shuffle(warm)
        self.rng.shuffle(cold)
        if not cold:
            return warm
        bounds = [round(i * len(warm) / len(cold)) for i in range(len(cold) + 1)]
        cards: List[Job] = []
        for job, lo, hi in zip(cold, bounds, bounds[1:]):
            stratum = warm[lo:hi]
            stratum.insert(self.rng.randint(0, len(stratum)), job)
            cards.extend(stratum)
        return cards

    def deal(self, n: int) -> List[Job]:
        while len(self.hand) < n:
            self.hand.extend(self.shuffled())
        dealt, self.hand = self.hand[:n], self.hand[n:]
        return dealt


@dataclass
class Record:
    job: Job
    due: float
    picked: float
    sent: float
    done: float
    status: int
    computed: int = 0
    hits: int = 0
    coalesced: bool = False

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def lag_ms(self) -> float:
        return (self.sent - max(self.due, self.picked)) * 1e3


class Server:
    """The service as a child process on its own store."""

    def __init__(self, store: Path) -> None:
        self.store = store
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve", "serve",
                "--store", str(store), "--port", "0",
                "--workers", str(WORKERS), "--queue-depth", "8",
                "--executor", "process",
            ],
            stdout=subprocess.PIPE,
            env=child_env(),
            start_new_session=True,
        )
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], BOOT_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            self.stop()
            raise RuntimeError("service did not report a listening address")
        self.port = int(json.loads(line)["listening"].rsplit(":", 1)[1])

    def peak_kb(self) -> int:
        """Sum of the high-water RSS of the server and its pool workers.

        Read from ``/proc`` while they run: a process's ``VmHWM`` counts
        only its own image, while ``ru_maxrss`` of a spawned process
        starts from its parent's peak.
        """
        pid = self.proc.pid
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as handle:
            pids = [pid, *map(int, handle.read().split())]
        total = 0
        for each in pids:
            with open(f"/proc/{each}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        return total

    def stop(self) -> None:
        """Interrupt the service and wait for it and its workers to exit."""
        if self.proc.returncode is None:
            try:
                self.proc.send_signal(signal.SIGINT)
            except ProcessLookupError:
                pass
        reap(self.proc, timeout=10.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class LoadGenerator:
    """Sends jobs over keep-alive connections and checks every answer."""

    def __init__(self, port: int, checker: PinChecker) -> None:
        self.clients = [HttpClient("127.0.0.1", port) for _ in range(CONNECTIONS)]
        self.checker = checker

    async def close(self) -> None:
        for client in self.clients:
            await client.close()

    async def _send(self, client: HttpClient, job: Job) -> Tuple[int, Dict[str, Any]]:
        try:
            with obs.span(f"bench.http.{job[0]}"):
                status, body, _headers = await client.request(
                    "POST", f"/{job[0]}", job_payload(job)
                )
        except (ServeError, OSError, asyncio.IncompleteReadError) as exc:
            await client.close()
            self.checker.fail(job_id(job), f"{type(exc).__name__}: {exc}")
            return -1, {}
        if status != 200:
            self.checker.fail(job_id(job), f"HTTP {status}")
        else:
            self.checker.check(job_id(job), {"result_sha256": result_digest(body)})
        return status, body

    async def run(self, jobs: List[Job], dues: Optional[List[float]]) -> List[Record]:
        """Open loop when ``dues`` is given, else closed loop."""
        records: List[Optional[Record]] = [None] * len(jobs)
        cursor = 0

        async def connection(client: HttpClient) -> None:
            nonlocal cursor
            while cursor < len(jobs):
                index = cursor
                cursor += 1
                picked = time.perf_counter()
                due = picked if dues is None else dues[index]
                if due > picked:
                    await asyncio.sleep(due - picked)
                sent = time.perf_counter()
                status, body = await self._send(client, jobs[index])
                stages = body.get("stages", {})
                records[index] = Record(
                    job=jobs[index],
                    due=due,
                    picked=picked,
                    sent=sent,
                    done=time.perf_counter(),
                    status=status,
                    computed=int(stages.get("computed", 0)),
                    hits=int(stages.get("hits", 0)),
                    coalesced=bool(body.get("coalesced", False)),
                )

        await asyncio.gather(*(connection(client) for client in self.clients))
        return [record for record in records if record is not None]

    async def open_loop(self, deck: ZipfDeck, rate: float, count: int) -> List[Record]:
        """Poisson arrivals at ``rate``, conditioned on ``count`` of them.

        Given their number, Poisson arrival times are sorted uniform
        draws over the window, so the window length is fixed.
        """
        start = time.perf_counter() + 0.05
        span_s = count / rate
        dues = sorted(start + deck.rng.random() * span_s for _ in range(count))
        return await self.run(deck.deal(count), dues)

    async def closed_loop(self, deck: ZipfDeck) -> Tuple[List[Record], float]:
        """Every connection busy until one deck is done; returns its seconds."""
        started = time.perf_counter()
        records = await self.run(deck.deal(len(deck.cards)), None)
        return records, time.perf_counter() - started


def meets_limit(records: List[Record]) -> bool:
    """p99 within the limit, nothing failed, and no backlog left behind."""
    if not records or any(r.status != 200 for r in records):
        return False
    last_due = max(r.due for r in records)
    drained = (max(r.done for r in records) - last_due) * 1e3 <= LATENCY_LIMIT_MS
    return drained and nearest_rank([r.latency_ms for r in records], 99) <= LATENCY_LIMIT_MS


async def send_all(port: int, checker: PinChecker, jobs: List[Job]) -> None:
    loadgen = LoadGenerator(port, checker)
    try:
        await loadgen.run(jobs, [0.0] * len(jobs))
    finally:
        await loadgen.close()


def set_up(checker: PinChecker) -> Tuple[List[float], Server]:
    """Boot and pre-warm ``SETUP_REPEATS`` times; keep the last server.

    Each time is net of the CPU time stolen while it ran.
    """
    times: List[float] = []
    server: Optional[Server] = None
    for attempt in range(SETUP_REPEATS["serve-mixed"]):
        store = SCRATCH / f"serve-{os.getpid()}-{attempt}"
        shutil.rmtree(store, ignore_errors=True)
        ticks = cpu_ticks()
        started = time.perf_counter()
        server = Server(store)
        try:
            asyncio.run(send_all(server.port, checker, prewarm_jobs()))
        except BaseException:
            server.stop()
            raise
        times.append((time.perf_counter() - started) * unstolen(ticks, cpu_ticks()))
        if attempt < SETUP_REPEATS["serve-mixed"] - 1:
            server.stop()
            shutil.rmtree(store, ignore_errors=True)
    assert server is not None
    return times, server


def store_sizes(store: Path) -> Dict[Tuple[str, str], int]:
    return {(i.key, i.kind): int(i.size_bytes) for i in ArtifactStore(str(store)).infos()}


async def _metrics(port: int) -> Dict[str, Any]:
    client = HttpClient("127.0.0.1", port)
    try:
        _status, body, _ = await client.request("GET", "/metrics")
    finally:
        await client.close()
    return body.get("metrics", {})


async def body(port: int, seed: int, checker: PinChecker, trace: bool):
    """The timed phases: the fixed-rate phase, the capacity probe and the
    open-loop steps.

    Returns the fixed-rate parts, each with the share of the CPU time
    wanted during it that was not stolen; the other records;
    ``sustained_rps`` on the host's clock and net of steal; and the
    server's metrics in a traced run.
    """
    deck = ZipfDeck(random.Random(seed))
    loadgen = LoadGenerator(port, checker)
    parts: List[Tuple[List[Record], float]] = []
    rest: List[Record] = []
    try:
        for _ in range(FIXED_PARTS):
            ticks = cpu_ticks()
            part = await loadgen.open_loop(deck, FIXED_RATE, FIXED_REQUESTS // FIXED_PARTS)
            parts.append((part, unstolen(ticks, cpu_ticks())))
        segments = []
        for _ in range(PROBE_SEGMENTS):
            ticks = cpu_ticks()
            saturated, sat_s = await loadgen.closed_loop(ZipfDeck(deck.rng, PROBE_REQUESTS))
            rest.extend(saturated)
            segments.append((len(saturated) / sat_s, unstolen(ticks, cpu_ticks())))
        capacity = median(rps for rps, _share in segments)
        # The steps are offered on the host as it is now; the capacity
        # they are a fraction of is also reported net of steal.
        fraction = STEP_FRACTIONS[-1]
        for candidate in STEP_FRACTIONS:
            rate = candidate * capacity
            step = await loadgen.open_loop(deck, rate, max(1, int(rate * STEP_S)))
            rest.extend(step)
            if meets_limit(step):
                fraction = candidate
                break
    finally:
        await loadgen.close()
    server_metrics = await _metrics(port) if trace else {}
    sustained = fraction * capacity
    sustained_net = fraction * median(rps / share for rps, share in segments)
    return parts, rest, (sustained, sustained_net), server_metrics


def run(workload: str, seed: int, trace: bool) -> Dict[str, Any]:
    """One run.  Its length is set by the fixed-rate schedule and the
    steps, not by ``--seconds``."""
    checker = PinChecker(workload)
    setup_times, server = set_up(checker)
    try:
        before = store_sizes(server.store)
        if trace:
            with obs.recording():
                parts, rest, sustained, server_metrics = asyncio.run(
                    body(server.port, seed, checker, trace)
                )
                spans = len(obs.completed_spans())
        else:
            parts, rest, sustained, server_metrics = asyncio.run(
                body(server.port, seed, checker, trace)
            )
        fixed = [record for part, _share in parts for record in part]
        peak_kb = server.peak_kb()
    finally:
        server.stop()
    after = store_sizes(server.store)
    written = {key: size for key, size in after.items() if key not in before}
    try:
        if trace:
            layers = layer_metrics(
                fixed + rest, written, server, server_metrics, spans
            )
    finally:
        shutil.rmtree(server.store, ignore_errors=True)

    # A shared virtual machine loses up to 40 % of its CPU time to other
    # guests, in stretches of seconds.  Each latency is therefore taken
    # net of steal: times the share of the CPU time wanted during its
    # part of the fixed-rate phase that the machine was given.  wall_s
    # stays on the real clock because the offered schedule does.
    latencies = [r.latency_ms for r in fixed]
    net = [r.latency_ms * share for part, share in parts for r in part]
    out: Dict[str, Any] = {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "mismatches": checker.mismatches,
        "raw": {
            "p50_ms": nearest_rank(latencies, 50),
            "p99_ms": nearest_rank(latencies, 99),
            "sustained_rps": sustained[0],
        },
    }
    if trace:
        out["per_layer"] = layers
    else:
        out["end_to_end"] = {
            "setup_s": median(setup_times),
            "wall_s": sum(
                max(r.done for r in part) - min(r.due for r in part) for part, _ in parts
            ),
            "peak_rss_mb": peak_kb / 1024.0,
            "p50_ms": nearest_rank(net, 50),
            "p99_ms": nearest_rank(net, 99),
            "sustained_rps": sustained[1],
        }
    return out


def _span_cost_s() -> float:
    """Cost of one recorded span, to estimate the tracing overhead."""
    with obs.recording():
        started = time.perf_counter()
        for _ in range(5000):
            with obs.span("bench.probe"):
                pass
        return (time.perf_counter() - started) / 5000


def layer_metrics(
    records: List[Record],
    written: Dict[Tuple[str, str], int],
    server: Server,
    server_metrics: Dict[str, Any],
    spans: int,
) -> Dict[str, float]:
    ok = [r for r in records if r.status == 200]
    answered = [r for r in ok if not r.coalesced]
    cold = [r.latency_ms for r in answered if r.computed > 0]
    warm = [r.latency_ms for r in answered if r.computed == 0]
    hits = sum(r.hits for r in answered)
    computed = sum(r.computed for r in answered)

    # Read back every artifact the run wrote, through the public store API.
    store = ArtifactStore(str(server.store))
    started = time.perf_counter()
    with obs.recording():
        for key, kind in written:
            with obs.span("bench.store.get", kind=kind):
                store.get(key, kind)
    read_s = time.perf_counter() - started
    megabytes = sum(written.values()) / 2**20

    weighted, total = 0.0, 0
    for kind in ("reorder", "simulate", "analyze"):
        entry = server_metrics.get(f"serve.{kind}.latency_ms", {})
        count = int(entry.get("count") or 0)
        if count and entry.get("p50") is not None:
            weighted += float(entry["p50"]) * count
            total += count
    body_s = max(r.done for r in records) - min(r.due for r in records)
    return {
        "store.hit_ratio": hits / max(1, hits + computed),
        "store.write_share": sum(1 for r in ok if r.computed > 0) / max(1, len(records)),
        "store.bytes_written": float(sum(written.values())),
        "store.get.ms_per_mb": read_s * 1e3 / megabytes if megabytes else 0.0,
        "serve.warm.p50_ms": nearest_rank(warm, 50) if warm else 0.0,
        "serve.cold.p50_ms": nearest_rank(cold, 50) if cold else 0.0,
        "serve.server.p50_ms": weighted / total if total else 0.0,
        "serve.coalesced_ratio": sum(1 for r in ok if r.coalesced) / max(1, len(records)),
        "serve.rejected": float(sum(1 for r in records if r.status == 429)),
        "loadgen.lag.p99_ms": nearest_rank([r.lag_ms for r in records], 99),
        "trace.overhead_ratio": spans * _span_cost_s() / body_s,
    }


def record() -> Dict[str, Dict[str, Any]]:
    """Pin the result digest of every job in the mix."""
    checker = PinChecker("serve-mixed", record=True)
    store = SCRATCH / f"serve-{os.getpid()}-pins"
    shutil.rmtree(store, ignore_errors=True)
    server = Server(store)
    try:
        asyncio.run(send_all(server.port, checker, ranked_jobs()))
    finally:
        server.stop()
        shutil.rmtree(store, ignore_errors=True)
    if checker.failed:
        raise RuntimeError(f"pinning failed: {checker.mismatches}")
    return checker.recorded
