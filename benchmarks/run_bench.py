#!/usr/bin/env python
"""Kernel and end-to-end benchmark harness — the repo's perf trajectory.

Runs the router's hot kernels (L-shape cost evaluation, congestion-map
add/remove, switchable flip gain, Prim MST) on realistic workloads plus a
full-scale end-to-end route of ``primary1`` and ``struct``, and writes the
timings to ``BENCH_kernels.json`` together with the commit hash and
circuit sizes.  Committing that file after a performance-relevant change
gives the repository a measured before/after record (see EXPERIMENTS.md).

It also times the sweep execution engine (``repro.exec``) on a
2-circuit × 3-algorithm × {1,2,4,8}-processor sweep — jobs=1 vs jobs=N
fan-out and cold vs warm run cache — and writes ``BENCH_sweep.json``
(skip with ``--no-sweep``).

``--transport-bench`` measures real wall-clock speedups on the
multiprocess SPMD transport (serial route vs ``--transport-nprocs``
rank processes, per algorithm) and appends a transport-stamped record
to the trajectory; the measured numbers are honest host numbers —
on a single-core runner they sit *below* 1x and are reported as such,
never gated (see EXPERIMENTS.md).

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py                 # full run
    PYTHONPATH=src python benchmarks/run_bench.py --scale 0.3     # quicker
    PYTHONPATH=src python benchmarks/run_bench.py --out /tmp/b.json

The kernel workloads are derived from an actual routed circuit (not
synthetic uniform data), so sharing structure and congestion profiles are
representative of what the router sees mid-run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.analysis.records import load_trajectory, validate_trajectory_record
from repro.circuits import mcnc
from repro.grid.channels import build_state
from repro.grid.coarse import CoarseGrid, Orientation
from repro.steiner import prim_mst
from repro.steiner.tree import build_net_tree
from repro.twgr import GlobalRouter, RouterConfig
from repro.twgr.coarse_step import coarse_route, collect_segments

#: circuits routed end-to-end (full scale by default)
BENCH_CIRCUITS = ("primary1", "struct")


def _time(fn: Callable[[], object], rounds: int, inner: int = 1) -> Dict[str, float]:
    """Best-practice micro timing: per-round wall time over ``rounds``."""
    fn()  # warm-up (imports, caches, JIT-free but allocator-warm)
    samples: List[float] = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - t0) / inner)
    return {
        "mean_s": statistics.fmean(samples),
        "stddev_s": statistics.stdev(samples) if len(samples) > 1 else 0.0,
        "min_s": min(samples),
        "rounds": rounds,
        "inner_iterations": inner,
    }


def bench_kernels(
    scale: float, seed: int, rounds: int
) -> Dict[str, Dict[str, float]]:
    """Micro-benchmarks of the three congestion kernels plus Prim MST."""
    cfg = RouterConfig(seed=seed)
    circuit = mcnc.generate("primary1", scale=scale, seed=seed)
    router = GlobalRouter(cfg)
    _result, art = router.route_with_artifacts(circuit)
    grid: CoarseGrid = art.grid
    # Recommit the pool on a fresh grid so the benchmark owns a consistent
    # (grid, committed routes) pair — route_with_artifacts keeps the grid
    # but not the per-segment pool.
    grid = CoarseGrid(
        ncols=grid.ncols, nrows=grid.nrows, col_width=grid.col_width,
        weights=cfg.weights,
    )
    committed_pool = coarse_route(
        collect_segments(art.trees), grid, cfg.rng(2, 0), passes=cfg.coarse_passes
    )
    out: Dict[str, Dict[str, float]] = {}

    # -- eval_cost: both orientations of every diagonal segment against the
    # fully loaded grid (exactly the improvement-pass access pattern).
    diagonals = [ps for ps in committed_pool if not ps.seg.is_flat]
    routes = []
    for ps in diagonals:
        routes.append(grid.route_for(ps.net, ps.seg, Orientation.VERT_AT_LOW))
        routes.append(grid.route_for(ps.net, ps.seg, Orientation.VERT_AT_HIGH))

    def run_eval() -> float:
        acc = 0.0
        for r in routes:
            acc += grid.eval_cost(r)
        return acc

    out["eval_cost"] = _time(run_eval, rounds)
    out["eval_cost"]["calls_per_round"] = len(routes)

    # -- batched_eval: the list entry point — the same candidates as
    # ``eval_cost``, but every (low, high) pair scored in one call, with
    # near-ties deferred to the strict oracle.
    pairs = [(ps.route_low, ps.route_high) for ps in diagonals]

    out["batched_eval"] = _time(lambda: grid.eval_both_batch(pairs), rounds)
    out["batched_eval"]["calls_per_round"] = len(pairs)

    # -- add/remove: rip-up + recommit of every committed route.
    committed = [ps.route for ps in committed_pool]

    def run_add_remove() -> None:
        for r in committed:
            grid.remove_route(r)
            grid.add_route(r)

    out["add_remove_route"] = _time(run_add_remove, rounds)
    out["add_remove_route"]["calls_per_round"] = 2 * len(committed)

    # -- flip_gain: every switchable span against the final channel state.
    spans = art.spans
    state = build_state(spans, 0, circuit.num_rows)
    switchable = [s for s in spans if s.switchable]

    def run_flip_gain() -> int:
        acc = 0
        for s in switchable:
            acc += state.flip_gain(s)
        return acc

    out["flip_gain"] = _time(run_flip_gain, rounds)
    out["flip_gain"]["calls_per_round"] = len(switchable)

    # -- prim_mst: the step-1 bottleneck at two characteristic sizes.
    rng = np.random.default_rng(seed)
    big = rng.integers(0, 2000, size=(200, 2))
    out["prim_mst"] = _time(lambda: prim_mst(big), rounds)
    out["prim_mst"]["terminals"] = 200
    small_sets = [rng.integers(0, 500, size=(int(n), 2)) for n in rng.integers(2, 9, size=200)]

    def run_small() -> None:
        for c in small_sets:
            prim_mst(c)

    out["prim_mst_small_nets"] = _time(run_small, rounds)
    out["prim_mst_small_nets"]["calls_per_round"] = len(small_sets)

    # -- steiner tree build (MST + refinement) over the same small nets.
    def run_trees() -> None:
        for i, c in enumerate(small_sets):
            build_net_tree(i, [(int(x), int(y)) for x, y in c])

    out["build_net_tree_small_nets"] = _time(run_trees, rounds)
    out["build_net_tree_small_nets"]["calls_per_round"] = len(small_sets)
    return out


def bench_end_to_end(scale: float, seed: int, rounds: int) -> Dict[str, Dict]:
    """Full serial routes of the benchmark circuits at ``scale``."""
    out: Dict[str, Dict] = {}
    for name in BENCH_CIRCUITS:
        circuit = mcnc.generate(name, scale=scale, seed=seed)
        router = GlobalRouter(RouterConfig(seed=seed))
        result, art = router.route_with_artifacts(circuit)
        timing = _time(lambda: router.route(circuit), rounds)
        # Incremental-engine observability: clean/dirty candidate counts
        # per coarse improvement pass and per step-5 gain sweep, plus the
        # headline dirty fraction (dirty / total over all coarse passes).
        coarse_stats = art.grid.flip_pass_stats() if art.grid is not None else []
        c_clean = sum(p["clean"] for p in coarse_stats)
        c_dirty = sum(p["dirty"] for p in coarse_stats)
        out[name] = {
            "scale": scale,
            "rows": circuit.num_rows,
            "cells": len(circuit.cells),
            "nets": len(circuit.nets),
            "pins": len(circuit.pins),
            "total_tracks": result.total_tracks,
            "area": result.area,
            "num_feedthroughs": result.num_feedthroughs,
            "route": timing,
            "coarse_pass_stats": coarse_stats,
            "switch_pass_stats": art.switch_stats,
            "dirty_frac": (
                round(c_dirty / (c_clean + c_dirty), 4)
                if (c_clean + c_dirty) else 1.0
            ),
        }
    return out


#: the engine sweep: both bench circuits, all three algorithms, the
#: paper's SparcCenter processor counts
SWEEP_ALGORITHMS = ("rowwise", "netwise", "hybrid")
SWEEP_PROCS = (1, 2, 4, 8)


def bench_sweep(scale: float, seed: int, jobs: int | None) -> Dict:
    """Time the execution engine on a full sweep, three ways.

    1. cold, ``jobs=1`` — the in-process reference execution;
    2. cold, ``jobs=N`` — process-pool fan-out into an empty cache;
    3. warm — the same sweep replayed entirely from the cache.

    All three must produce bit-identical quality metrics and modeled
    times; the report records the wall-time ratios.
    """
    from repro.exec import SweepPoint, RunCache, resolve_jobs, run_sweep

    cfg = RouterConfig(seed=seed)
    points = [
        SweepPoint(
            circuit=name, algorithm=algo, nprocs=p, scale=scale,
            circuit_seed=seed, config=cfg,
        )
        for name in BENCH_CIRCUITS
        for algo in SWEEP_ALGORITHMS
        for p in SWEEP_PROCS
    ]
    njobs = resolve_jobs(jobs)

    tmp = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        t0 = time.perf_counter()
        serial_recs = run_sweep(points, jobs=1)
        cold_jobs1_s = time.perf_counter() - t0

        cache = RunCache(tmp)
        t0 = time.perf_counter()
        pooled_recs = run_sweep(points, jobs=njobs, cache=cache)
        cold_jobsn_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        warm_recs = run_sweep(points, jobs=njobs, cache=cache)
        warm_cache_s = time.perf_counter() - t0

        qualities = [list(r.quality) for r in serial_recs]
        identical = (
            qualities == [list(r.quality) for r in pooled_recs]
            and qualities == [list(r.quality) for r in warm_recs]
            and all(r.cached for r in warm_recs)
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    return {
        "scale": scale,
        "seed": seed,
        "circuits": list(BENCH_CIRCUITS),
        "algorithms": list(SWEEP_ALGORITHMS),
        "procs": list(SWEEP_PROCS),
        "points": len(points),
        "host_cpus": os.cpu_count(),
        "jobs": njobs,
        "cold_jobs1_s": round(cold_jobs1_s, 4),
        "cold_jobsN_s": round(cold_jobsn_s, 4),
        "warm_cache_s": round(warm_cache_s, 4),
        "jobs_speedup": round(cold_jobs1_s / cold_jobsn_s, 3),
        "warm_cache_speedup": round(cold_jobsn_s / warm_cache_s, 1),
        "bit_identical": identical,
        "quality": {
            p.describe(): q for p, q in zip(points, qualities)
        },
    }


def bench_transport(scale: float, seed: int, nprocs: int) -> Dict:
    """Measured wall-clock speedups on the multiprocess SPMD transport.

    Routes ``primary1`` once per parallel algorithm with ``nprocs`` real
    rank processes (``transport="multiprocess"``) plus the serial
    baseline in-process, and reports
    ``measured = serial_wall / parallel_wall`` next to the modeled
    logical-clock speedup.  The measured number includes process
    startup and message pickling and cannot exceed the host's core
    count — ``host_cpus`` is recorded so a sub-1x result on a one-core
    runner reads as the platform fact it is, not a regression.
    """
    from repro.parallel.driver import route_parallel

    circuit_name = "primary1"
    circuit = mcnc.generate(circuit_name, scale=scale, seed=seed)
    cfg = RouterConfig(seed=seed)
    by_algo: Dict[str, Dict] = {}
    walls: List[float] = []
    for algo in SWEEP_ALGORITHMS:
        run = route_parallel(
            circuit, algorithm=algo, nprocs=nprocs, config=cfg,
            transport="multiprocess",
        )
        t = run.timing
        walls.append(t.measured_wall_s or 0.0)
        by_algo[algo] = {
            "measured": (
                round(t.measured_speedup, 4)
                if t.measured_speedup is not None else None
            ),
            "modeled": round(t.speedup, 4) if t.speedup is not None else None,
            "serial_wall_s": round(t.measured_serial_s or 0.0, 4),
            "parallel_wall_s": round(t.measured_wall_s or 0.0, 4),
            "total_tracks": run.result.total_tracks,
        }
    return {
        "circuit": circuit_name,
        "scale": scale,
        "seed": seed,
        "nprocs": nprocs,
        "host_cpus": os.cpu_count(),
        "by_algorithm": by_algo,
        "mean_parallel_wall_s": round(sum(walls) / len(walls), 4),
    }


#: version of the per-commit trajectory record layout
TRAJECTORY_SCHEMA = 1


def merge_trajectory_record(record: Dict, path: Path) -> Dict:
    """Validate ``record`` and fold it into the trajectory file.

    Dedupe key is ``(commit, backend, transport, scale, seed, rounds)``:
    re-running the same measurement replaces its record, but a record on
    another backend, transport, or operating point never clobbers an
    existing one.
    """
    def _key(r):
        return (
            r.get("commit"), r.get("backend", ""), r.get("transport", ""),
            r.get("scale"), r.get("seed"), r.get("rounds"),
        )

    validate_trajectory_record(record, f"{path}: new record")
    if path.exists():
        records = [r for r in load_trajectory(path) if _key(r) != _key(record)]
    else:
        records = []
    records.append(record)
    trajectory = {"schema": TRAJECTORY_SCHEMA, "records": records}
    path.write_text(json.dumps(trajectory, indent=2) + "\n")
    return record


def append_trajectory(report: Dict, path: Path) -> Dict:
    """Fold one bench report into the cumulative ``BENCH_trajectory.json``.

    The trajectory file is the repo's long-term perf memory: one compact
    record per commit (re-running on the same commit replaces its record
    rather than appending a duplicate), ordered oldest-first, so plotting
    mean route time against commit history is a single ``json.load``.
    Records carry only headline numbers — kernel means and end-to-end
    route stats — not the full sample distributions of the main report.
    Both the existing file and the freshly built record pass through the
    versioned fail-fast validator (:mod:`repro.analysis.records`), so a
    hand-edited or corrupted trajectory is rejected before it is
    silently rewritten.
    """
    record = {
        "schema": TRAJECTORY_SCHEMA,
        "commit": report["commit"],
        "unix_time": report["unix_time"],
        "python": report["python"],
        "backend": report.get("backend", ""),
        "seed": report["seed"],
        "scale": report["scale"],
        "rounds": report["rounds"],
        "kernels_mean_s": {
            name: k["mean_s"] for name, k in report["kernels"].items()
        },
        "circuits": {
            name: {
                "route_mean_s": c["route"]["mean_s"],
                "route_min_s": c["route"]["min_s"],
                "total_tracks": c["total_tracks"],
                "area": c["area"],
                "num_feedthroughs": c["num_feedthroughs"],
                "dirty_frac": c.get("dirty_frac"),
            }
            for name, c in report["circuits"].items()
        },
    }
    return merge_trajectory_record(record, path)


def transport_trajectory_record(transport_report: Dict, backend: str) -> Dict:
    """A slim transport-stamped trajectory record from a transport bench.

    Carries the measured parallel route wall as ``route_mean_s`` (so the
    ``backend@multiprocess`` chain trends it across commits) and the full
    per-algorithm speedup block under ``speedups``.  No kernel stats:
    kernels are transport-independent and already trended by the main
    record.
    """
    sp = transport_report
    return {
        "schema": TRAJECTORY_SCHEMA,
        "commit": git_commit(),
        "unix_time": int(time.time()),
        "python": sys.version.split()[0],
        "backend": backend,
        "transport": "multiprocess",
        "seed": sp["seed"],
        "scale": sp["scale"],
        "rounds": 1,
        "kernels_mean_s": {},
        "circuits": {
            sp["circuit"]: {
                "route_mean_s": sp["mean_parallel_wall_s"],
            },
        },
        "speedups": {
            "nprocs": sp["nprocs"],
            "host_cpus": sp["host_cpus"],
            "by_algorithm": sp["by_algorithm"],
        },
    }


def git_commit() -> str:
    """``HEAD`` hash, stamped ``+dirty`` when the worktree has changes.

    The stamp keeps trajectory records honest: re-running on an
    uncommitted state dedupes against the *dirty* record of that commit,
    never silently replacing the clean post-commit measurement (the
    trajectory dedupe key is ``(commit, backend, scale, seed, rounds)``).
    """
    repo = Path(__file__).resolve().parent.parent
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"
    try:
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=repo, capture_output=True, text=True, check=True,
        ).stdout.strip())
    except Exception:
        dirty = False
    return head + "+dirty" if dirty else head


def main(argv: List[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(Path(__file__).resolve().parent.parent / "BENCH_kernels.json"))
    ap.add_argument("--scale", type=float, default=1.0, help="circuit scale (default: full size)")
    ap.add_argument("--kernel-scale", type=float, default=1.0, help="scale of the kernel-workload circuit")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument(
        "--sweep-out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_sweep.json"),
    )
    ap.add_argument(
        "--sweep-scale", type=float, default=0.1,
        help="circuit scale for the engine sweep benchmark",
    )
    ap.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the engine sweep (default: host cores)",
    )
    ap.add_argument(
        "--no-sweep", action="store_true",
        help="skip the execution-engine sweep benchmark",
    )
    ap.add_argument(
        "--trajectory",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_trajectory.json"),
        help="cumulative per-commit trajectory file (empty string to skip)",
    )
    ap.add_argument(
        "--transport-bench", action="store_true",
        help="measure wall-clock speedups on the multiprocess transport "
        "and append a transport-stamped trajectory record",
    )
    ap.add_argument(
        "--transport-nprocs", type=int, default=4,
        help="rank processes for the transport bench (default 4)",
    )
    ap.add_argument(
        "--transport-scale", type=float, default=0.15,
        help="circuit scale for the transport bench (default 0.15)",
    )
    ap.add_argument(
        "--transport-only", action="store_true",
        help="run only the transport bench (implies --transport-bench, "
        "skips kernels/end-to-end/sweep)",
    )
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")

    # records keep their backend stamp so the committed per-backend
    # trajectory chain continues
    backend = RouterConfig().resolved_backend()

    def run_transport_bench() -> None:
        sp = bench_transport(
            args.transport_scale, args.seed, args.transport_nprocs
        )
        print(
            f"transport bench (multiprocess, p={sp['nprocs']}, "
            f"{sp['host_cpus']} cpu(s), {sp['circuit']}@{sp['scale']:g}):"
        )
        for algo, entry in sp["by_algorithm"].items():
            measured = entry["measured"]
            modeled = entry["modeled"]
            print(
                f"  {algo:<8} serial {entry['serial_wall_s']:.3f}s, "
                f"parallel {entry['parallel_wall_s']:.3f}s, measured "
                f"{f'{measured:.2f}x' if measured is not None else 'n/a'} "
                f"(modeled {f'{modeled:.2f}x' if modeled is not None else 'n/a'})"
            )
        if args.trajectory:
            record = transport_trajectory_record(sp, backend)
            merge_trajectory_record(record, Path(args.trajectory))
            print(f"appended transport record to {args.trajectory}")

    if args.transport_only:
        run_transport_bench()
        return 0

    t0 = time.perf_counter()
    kernels = bench_kernels(args.kernel_scale, args.seed, args.rounds)
    circuits = bench_end_to_end(args.scale, args.seed, args.rounds)

    report = {
        "schema": 1,
        "commit": git_commit(),
        "unix_time": int(time.time()),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "backend": backend,
        "seed": args.seed,
        "scale": args.scale,
        "rounds": args.rounds,
        "kernels": kernels,
        "circuits": circuits,
        "harness_wall_s": round(time.perf_counter() - t0, 3),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    if args.trajectory:
        append_trajectory(report, Path(args.trajectory))

    width = max(len(k) for k in list(kernels) + list(circuits))
    print(
        f"commit {report['commit'][:12]}  (rounds={args.rounds}, "
        f"scale={args.scale})"
    )
    for name, k in kernels.items():
        per = ""
        calls = k.get("calls_per_round")
        if calls:
            per = f"  ({1e6 * k['mean_s'] / calls:8.2f} us/call)"
        print(f"  {name:<{width}}  {1e3 * k['mean_s']:9.3f} ms +/- {1e3 * k['stddev_s']:.3f}{per}")
    for name, c in circuits.items():
        r = c["route"]
        print(
            f"  {name:<{width}}  {1e3 * r['mean_s']:9.3f} ms +/- {1e3 * r['stddev_s']:.3f}"
            f"  (route: {c['nets']} nets, {c['total_tracks']} tracks, "
            f"dirty {c['dirty_frac']:.0%})"
        )
    print(f"wrote {args.out}")
    if args.trajectory:
        print(f"appended commit record to {args.trajectory}")

    if not args.no_sweep:
        sweep = bench_sweep(args.sweep_scale, args.seed, args.jobs)
        sweep_report = {
            "schema": 1,
            "commit": report["commit"],
            "unix_time": report["unix_time"],
            "python": report["python"],
            "backend": backend,
            "sweep": sweep,
        }
        Path(args.sweep_out).write_text(json.dumps(sweep_report, indent=2) + "\n")
        print(
            f"engine sweep ({sweep['points']} points @ scale {sweep['scale']:g}, "
            f"{sweep['host_cpus']} cpu(s)):"
        )
        print(
            f"  cold jobs=1 {sweep['cold_jobs1_s']:.2f}s, "
            f"cold jobs={sweep['jobs']} {sweep['cold_jobsN_s']:.2f}s "
            f"({sweep['jobs_speedup']:.2f}x), "
            f"warm cache {sweep['warm_cache_s']:.3f}s "
            f"({sweep['warm_cache_speedup']:.0f}x)"
        )
        print(f"  bit-identical across all three: {sweep['bit_identical']}")
        print(f"wrote {args.sweep_out}")

    if args.transport_bench:
        run_transport_bench()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
