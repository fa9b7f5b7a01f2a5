"""Canned experiment runners — one per paper table/figure.

Every runner reads its grid — circuits, processor counts, scale, seed
and machine — from an :class:`~repro.analysis.specs.ExperimentSpec`; the
shipped grid is ``benchmarks/specs/paper_suite.toml``.  A runner builds
its whole point list, serial baselines included, with
:meth:`ExperimentSpec.point` and executes it in one
:func:`~repro.exec.engine.run_sweep_salvage` call, raising when any
point is lost.  Runners share runs only through an explicit
:class:`~repro.exec.RunCache` (``cache=``): the Table 2 quality table
and the Figure 4 speedup figure, which the paper derives from the same
runs, route once when they are given the same cache.  ``jobs`` fans a
sweep out across worker processes (default: host cores).

Every runner returns a rendered :class:`~repro.analysis.tables.Table`
(or series) plus the raw runs.  Circuits are generated at the spec's
scale of their published size so a full sweep stays minutes of
pure-Python time; EXPERIMENTS.md records the scale each shipped artifact
used.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Hashable, Optional, Sequence, Tuple

from repro.analysis.specs import ExperimentSpec
from repro.analysis.tables import Table, render_series
from repro.circuits import mcnc
from repro.exec.cache import RunCache
from repro.exec.engine import SweepPoint, build_circuit, run_sweep_salvage
from repro.exec.record import RunRecord
from repro.parallel.driver import ParallelConfig, ParallelRun
from repro.parallel.partition import RowPartition, partition_nets, partition_summary


def _sweep(
    points: Dict[Hashable, SweepPoint],
    cache: Optional[RunCache],
    jobs: Optional[int],
) -> Dict[Hashable, RunRecord]:
    """The points' records from one engine sweep, by label.

    Raises when any point is lost.
    """
    outcome = run_sweep_salvage(list(points.values()), jobs=jobs, cache=cache)
    if not outcome.ok:
        raise RuntimeError("; ".join(f.describe() for f in outcome.failures))
    return dict(zip(points, outcome.records))


def _algorithm_runs(
    algorithm: str,
    spec: ExperimentSpec,
    procs: Sequence[int],
    cache: Optional[RunCache],
    jobs: Optional[int],
) -> Dict[str, Dict[int, ParallelRun]]:
    """``algorithm`` on every spec circuit at each of ``procs``."""
    points: Dict[Hashable, SweepPoint] = {}
    for name in spec.circuits:
        points[name, "serial"] = spec.point(name, "serial")
        for p in procs:
            points[name, p] = spec.point(name, algorithm, p)
    records = _sweep(points, cache, jobs)
    return {
        name: {p: records[name, p].parallel_run() for p in procs}
        for name in spec.circuits
    }


# ---------------------------------------------------------------------------
# Table 1 — circuit characteristics
# ---------------------------------------------------------------------------

def run_circuit_characteristics(spec: ExperimentSpec) -> Table:
    """Paper Table 1: rows / pins / cells / nets per test circuit.

    Only generates circuits, so it takes no cache or jobs.  It routes
    none of them, so it leaves them out of the engine's circuit memo.
    """
    table = Table(
        title=f"Table 1 — characteristics of test circuits (scale={spec.scale:g})",
        columns=["circuit", "rows", "pins", "cells", "nets"],
    )
    for name in spec.circuits:
        s = mcnc.generate(name, scale=spec.scale, seed=spec.seed).stats()
        table.add_row(name, s.num_rows, s.num_pins, s.num_cells, s.num_nets)
    return table


# ---------------------------------------------------------------------------
# Tables 2–4 — scaled track quality per algorithm
# ---------------------------------------------------------------------------

def run_quality_table(
    algorithm: str,
    spec: ExperimentSpec,
    *,
    cache: Optional[RunCache] = None,
    jobs: Optional[int] = None,
) -> Tuple[Table, Dict[str, Dict[int, ParallelRun]]]:
    """Paper Tables 2 (row-wise), 3 (net-wise), 4 (hybrid): track counts of
    the parallel run scaled by the serial run, per processor count."""
    number = {"rowwise": 2, "netwise": 3, "hybrid": 4}[algorithm]
    table = Table(
        title=(
            f"Table {number} — scaled track results of the {algorithm} "
            f"pin partition algorithm (scale={spec.scale:g})"
        ),
        columns=["circuit"] + [f"{p} proc" for p in spec.nprocs],
    )
    runs = _algorithm_runs(algorithm, spec, spec.nprocs, cache, jobs)
    for name in spec.circuits:
        table.add_row(name, *[runs[name][p].scaled_tracks for p in spec.nprocs])
    avg = [
        sum(runs[n][p].scaled_tracks for n in spec.circuits) / len(spec.circuits)
        for p in spec.nprocs
    ]
    table.add_row("average", *avg)
    return table, runs


# ---------------------------------------------------------------------------
# Figures 4–6 — speedups per algorithm
# ---------------------------------------------------------------------------

def run_speedup_figure(
    algorithm: str,
    spec: ExperimentSpec,
    *,
    cache: Optional[RunCache] = None,
    jobs: Optional[int] = None,
) -> Tuple[str, Dict[str, Dict[int, Optional[float]]]]:
    """Paper Figures 4 (row-wise), 5 (net-wise), 6 (hybrid): modeled
    speedups over the serial run per circuit and processor count."""
    number = {"rowwise": 4, "netwise": 5, "hybrid": 6}[algorithm]
    procs = [p for p in spec.nprocs if p > 1]
    runs = _algorithm_runs(algorithm, spec, procs, cache, jobs)
    series = {
        name: {p: run.speedup for p, run in by_p.items()}
        for name, by_p in runs.items()
    }
    rendered = render_series(
        f"Figure {number} — speedup of the {algorithm} pin partition algorithm "
        f"on {spec.machine} (scale={spec.scale:g})",
        series,
    )
    return rendered, series


# ---------------------------------------------------------------------------
# Table 5 — the hybrid algorithm across platforms
# ---------------------------------------------------------------------------

def run_platform_table(
    spec: ExperimentSpec,
    *,
    cache: Optional[RunCache] = None,
    jobs: Optional[int] = None,
    platforms: Tuple[Tuple[str, Tuple[int, ...]], ...] = (
        ("SparcCenter-1000", (1, 4, 8)),
        ("Intel-Paragon", (1, 4, 16)),
    ),
) -> Tuple[Table, Dict[str, Dict[str, Dict[int, ParallelRun]]]]:
    """Paper Table 5: hybrid algorithm results (tracks, area, modeled time,
    speedup) on the Sun SparcCenter 1000 SMP and the Intel Paragon DMP.

    Each platform replaces the spec's machine.  On the Paragon the
    memory gate uses the *full-scale* circuit footprint (32 MB nodes),
    reproducing the paper's serial "timeout" entries whose speedups are
    then marked with ``*`` and estimated as proportional to the
    processor count.
    """
    circuits = spec.circuits
    table = Table(
        title=f"Table 5 — hybrid pin partition across platforms (scale={spec.scale:g})",
        columns=["platform", "procs", "metric"] + list(circuits),
    )
    points: Dict[Hashable, SweepPoint] = {}
    for machine_name, procs in platforms:
        mspec = replace(spec, machine=machine_name)
        for name in circuits:
            points[machine_name, name, 1] = mspec.point(name, "serial")
            for p in procs:
                if p > 1:
                    points[machine_name, name, p] = mspec.point(name, "hybrid", p)
    records = _sweep(points, cache, jobs)
    all_runs: Dict[str, Dict[str, Dict[int, ParallelRun]]] = {}
    for machine_name, procs in platforms:
        runs: Dict[str, Dict[int, ParallelRun]] = {
            name: {
                p: records[machine_name, name, p].parallel_run()
                for p in procs if p > 1
            }
            for name in circuits
        }
        all_runs[machine_name] = runs
        bases = {
            name: records[machine_name, name, 1].routing_result()
            for name in circuits
        }
        table.add_row(
            machine_name, 1, "tracks", *[bases[n].total_tracks for n in circuits]
        )
        table.add_row(
            machine_name, 1, "area", *[bases[n].area for n in circuits]
        )
        table.add_row(
            machine_name, 1, "time (s)",
            *[
                round(bases[n].model_time, 1) if bases[n].model_time is not None else "timeout"
                for n in circuits
            ],
        )
        for p in procs:
            if p <= 1:
                continue
            table.add_row(
                machine_name, p, "scaled tracks",
                *[runs[n][p].scaled_tracks for n in circuits],
            )
            table.add_row(
                machine_name, p, "scaled area",
                *[runs[n][p].scaled_area for n in circuits],
            )
            table.add_row(
                machine_name, p, "time (s)",
                *[round(runs[n][p].result.model_time, 1) for n in circuits],
            )
            speedups = []
            for n in circuits:
                s = runs[n][p].speedup
                # serial OOM: the paper assumes speedup proportional to p
                speedups.append(f"{p:.1f}*" if s is None else round(s, 2))
            table.add_row(machine_name, p, "speedup", *speedups)
    return table, all_runs


# ---------------------------------------------------------------------------
# Ablations (§5 design choices)
# ---------------------------------------------------------------------------

def _variant_runs(
    spec: ExperimentSpec,
    algorithm: str,
    circuit_name: str,
    nprocs: int,
    pconfigs: Dict[Hashable, ParallelConfig],
    cache: Optional[RunCache],
    jobs: Optional[int],
) -> Dict[Hashable, ParallelRun]:
    """One circuit at one processor count under each parallel config."""
    points: Dict[Hashable, SweepPoint] = {
        ("serial",): spec.point(circuit_name, "serial")
    }
    for label, pconfig in pconfigs.items():
        points[label] = spec.point(circuit_name, algorithm, nprocs, pconfig=pconfig)
    records = _sweep(points, cache, jobs)
    return {label: records[label].parallel_run() for label in pconfigs}


def run_net_partition_ablation(
    spec: ExperimentSpec,
    *,
    cache: Optional[RunCache] = None,
    jobs: Optional[int] = None,
    circuit_name: str = "biomed",
    nprocs: int = 8,
    algorithm: str = "netwise",
) -> Tuple[Table, Dict[str, ParallelRun]]:
    """Compare the four §5 net-partition heuristics on one circuit: load
    balance of the partition itself plus quality/speedup of the routed
    result."""
    schemes = ("center", "locus", "density", "pin_weight")
    runs = _variant_runs(
        spec, algorithm, circuit_name, nprocs,
        {s: ParallelConfig(net_scheme=s) for s in schemes}, cache, jobs,
    )
    circuit = build_circuit(circuit_name, spec.scale, spec.seed)
    row_part = RowPartition.balanced(circuit, nprocs)
    table = Table(
        title=(
            f"Net partition heuristics on {circuit_name} "
            f"({algorithm}, p={nprocs}, scale={spec.scale:g})"
        ),
        columns=[
            "scheme", "pin imbalance", "steiner imbalance",
            "scaled tracks", "speedup",
        ],
    )
    for scheme in schemes:
        run = runs[scheme]
        owner = partition_nets(
            circuit, nprocs, scheme=scheme, row_part=row_part,
            alpha=ParallelConfig().alpha,
        )
        summary = partition_summary(circuit, owner, nprocs)
        table.add_row(
            scheme,
            summary["pin_imbalance"],
            summary["steiner_imbalance"],
            run.scaled_tracks,
            run.speedup,
        )
    return table, runs


def run_alpha_ablation(
    spec: ExperimentSpec,
    *,
    cache: Optional[RunCache] = None,
    jobs: Optional[int] = None,
    circuit_name: str = "avq_large",
    nprocs: int = 8,
    alphas: Tuple[float, ...] = (0.5, 1.0, 2.0, 3.0),
) -> Tuple[Table, Dict[float, ParallelRun]]:
    """Sweep the pin-number-weight exponent on an avq.large-like circuit
    (the paper tunes this exponent specifically for AVQ-LARGE's >2000-pin
    clock nets)."""
    runs = _variant_runs(
        spec, "rowwise", circuit_name, nprocs,
        {a: ParallelConfig(net_scheme="pin_weight", alpha=a) for a in alphas},
        cache, jobs,
    )
    circuit = build_circuit(circuit_name, spec.scale, spec.seed)
    row_part = RowPartition.balanced(circuit, nprocs)
    table = Table(
        title=(
            f"Pin-number-weight alpha sweep on {circuit_name} "
            f"(rowwise, p={nprocs}, scale={spec.scale:g})"
        ),
        columns=["alpha", "steiner imbalance", "speedup", "scaled tracks"],
    )
    for alpha in alphas:
        run = runs[alpha]
        owner = partition_nets(
            circuit, nprocs, scheme="pin_weight", row_part=row_part, alpha=alpha
        )
        summary = partition_summary(circuit, owner, nprocs)
        table.add_row(alpha, summary["steiner_imbalance"], run.speedup, run.scaled_tracks)
    return table, runs


def run_sync_frequency_ablation(
    spec: ExperimentSpec,
    *,
    cache: Optional[RunCache] = None,
    jobs: Optional[int] = None,
    circuit_name: str = "biomed",
    nprocs: int = 8,
    frequencies: Tuple[int, ...] = (1, 4, 8),
) -> Tuple[Table, Dict[int, ParallelRun]]:
    """Net-wise synchronization frequency vs quality and runtime (paper
    §5/§7.2: "If we synchronize too often, we will lose runtime
    performance"; too rarely, quality).

    Runs in the costly *profile* sync mode, the one that actually
    controls quality.
    """
    runs = _variant_runs(
        spec, "netwise", circuit_name, nprocs,
        {
            f: ParallelConfig(
                coarse_syncs_per_pass=f,
                switch_syncs_per_pass=f,
                switch_sync_mode="profile",
            )
            for f in frequencies
        },
        cache, jobs,
    )
    table = Table(
        title=(
            f"Net-wise sync frequency on {circuit_name} "
            f"(p={nprocs}, scale={spec.scale:g})"
        ),
        columns=["syncs/pass", "scaled tracks", "speedup", "comm share"],
    )
    for freq in frequencies:
        run = runs[freq]
        total = sum(run.timing.rank_times) or 1.0
        comm_share = sum(run.timing.rank_comm) / total
        table.add_row(freq, run.scaled_tracks, run.speedup, comm_share)
    return table, runs
