#!/usr/bin/env python3
"""Regenerate any of the paper's tables and figures from the command line.

Usage:
    python examples/run_experiments.py                # list experiments
    python examples/run_experiments.py fig4 table5    # run a selection
    python examples/run_experiments.py all            # run everything
    python examples/run_experiments.py all --jobs 4   # process fan-out
    python examples/run_experiments.py all --refresh  # recompute stages

Runs are memoized through the artifact store (see DESIGN.md §9): shared
stages — graphs, reorderings, traces — are pulled from disk on warm
runs, and each run writes a provenance manifest.  ``--no-cache``
restores the original store-less behaviour.
"""

import argparse
import sys
import time

from repro import obs
from repro.bench import experiment_ids, run_experiment, run_experiments
from repro.bench.workloads import Workloads
from repro.store import ArtifactStore, RunManifest, default_store_dir


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run_experiments.py",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help="experiment ids to run, or 'all'; no ids lists what is available",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the artifact store and recompute everything in memory",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="recompute every stage and overwrite its stored artifact",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="fan experiments out across N worker processes "
        "(stages are shared through the store)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=f"artifact store directory (default: {default_store_dir()})",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="RUN_JSON",
        help="enable span/metric tracing and save the run document here "
        "(inspect with: python -m repro.obs summarize RUN_JSON)",
    )
    parser.add_argument(
        "--chrome-trace",
        default=None,
        metavar="TRACE_JSON",
        help="also write a chrome://tracing event file (implies --trace "
        "collection for this run)",
    )
    return parser


def main(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    available = experiment_ids()
    if not args.experiments:
        print("Available experiments (pass ids, or 'all'):")
        for experiment_id in available:
            print(f"  {experiment_id}")
        return 0

    selected = available if args.experiments == ["all"] else args.experiments
    unknown = [e for e in selected if e not in available]
    if unknown:
        print(f"Unknown experiment(s): {unknown}; available: {available}")
        return 2
    if args.no_cache and (args.refresh or args.store):
        print("--no-cache cannot be combined with --refresh or --store")
        return 2
    if args.jobs is not None and args.jobs < 1:
        print("--jobs must be a positive integer")
        return 2

    store = None
    if not args.no_cache:
        store = ArtifactStore(args.store or default_store_dir())

    tracing = args.trace is not None or args.chrome_trace is not None
    if tracing:
        if args.jobs is not None:
            print("--trace/--chrome-trace require the in-process runner (no --jobs)")
            return 2
        obs.reset_all()
        obs.enable()

    failures = 0
    start = time.perf_counter()
    if args.jobs is not None:
        reports = run_experiments(
            selected,
            executor="process",
            max_workers=args.jobs,
            store=store,
            refresh=args.refresh,
        )
        for experiment_id in selected:
            report = reports[experiment_id]
            print(report.render())
            print(f"[{experiment_id} finished in {report.duration_s:.1f}s]\n")
            if not report.all_shapes_hold:
                failures += 1
    else:
        manifest = RunManifest.start() if store is not None else None
        workloads = (
            Workloads(store=store, refresh=args.refresh, manifest=manifest)
            if store is not None
            else None
        )
        for experiment_id in selected:
            report = run_experiment(experiment_id, workloads)
            print(report.render())
            print(f"[{experiment_id} finished in {report.duration_s:.1f}s]\n")
            if not report.all_shapes_hold:
                failures += 1
        if store is not None and manifest is not None:
            path = manifest.save(store)
            hits = manifest.hit_count()
            computed = manifest.computed_count()
            print(
                f"[store: {hits} stage hit(s), {computed} computed; "
                f"manifest {path}]"
            )
    elapsed = time.perf_counter() - start

    if tracing:
        # Saved while still recording: the run document's environment
        # snapshot reads the live flag into ``trace_enabled``.
        if args.trace is not None:
            path = obs.save_run(args.trace)
            print(f"[trace: run document {path} "
                  f"(python -m repro.obs summarize {path})]")
        if args.chrome_trace is not None:
            path = obs.save_chrome_trace(args.chrome_trace)
            print(f"[trace: chrome://tracing file {path}]")
        obs.disable()

    if failures:
        print(f"{failures} experiment(s) had shape mismatches ({elapsed:.1f}s total)")
        return 1
    print(f"All shape checks hold ({elapsed:.1f}s total).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
