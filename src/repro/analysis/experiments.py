"""Canned experiment runners — one per paper table/figure.

Every runner returns a rendered :class:`~repro.analysis.tables.Table`
(or series) plus the raw records.  All routing goes through the
execution engine (:mod:`repro.exec`): runs are memoized in-process by
their content address so that e.g. the Table 2 quality table and the
Figure 4 speedup figure — which the paper derives from the same runs —
share one sweep, an optional :class:`~repro.exec.RunCache` persists them
across invocations, and :func:`prefetch` fans a whole sweep out across
worker processes before the table runners consume it.

Circuits are generated at ``settings.scale`` of their published size so a
full sweep stays minutes of pure-Python time; EXPERIMENTS.md records the
scale each shipped artifact used.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import Table, render_series
from repro.circuits import mcnc
from repro.circuits.model import Circuit
from repro.exec.cache import RunCache
from repro.exec.engine import SweepPoint, run_sweep_salvage
from repro.exec.record import RunRecord
from repro.parallel.driver import ParallelConfig, ParallelRun
from repro.parallel.partition import partition_nets, partition_summary
from repro.perfmodel.machine import MACHINES, MachineModel
from repro.twgr.config import RouterConfig
from repro.twgr.result import RoutingResult


@dataclass(frozen=True, slots=True)
class ExperimentSettings:
    """Shared knobs of the reproduction experiments.

    Hashable (machine referenced by name) so sweeps can be memoized.
    """

    circuits: Tuple[str, ...] = tuple(mcnc.PAPER_SUITE)
    procs: Tuple[int, ...] = (1, 2, 4, 8)
    scale: float = 0.12
    seed: int = 1
    machine_name: str = "SparcCenter-1000"
    config: RouterConfig = field(default_factory=lambda: RouterConfig(seed=1))
    pconfig: ParallelConfig = field(default_factory=ParallelConfig)

    @property
    def machine(self) -> MachineModel:
        """The resolved machine model."""
        return MACHINES[self.machine_name]

    def circuit(self, name: str) -> Circuit:
        """Generate the named benchmark at these settings."""
        return mcnc.generate(name, scale=self.scale, seed=self.seed)


#: small-and-fast settings for tests
QUICK = ExperimentSettings(
    circuits=("primary1", "primary2"), procs=(1, 2, 4), scale=0.05
)


#: in-process memo of executed runs, keyed by SweepPoint content address.
#: Keying by content hash (not by call arguments) means a serial baseline
#: is shared across every settings variant that only differs in parallel
#: knobs — exactly the runs it is valid for.
_RECORDS: Dict[str, RunRecord] = {}

#: optional on-disk cache consulted by every run (see :func:`set_cache`)
_CACHE: Optional[RunCache] = None

#: worker processes for :func:`prefetch` (None = engine default)
_JOBS: Optional[int] = 1


def set_cache(cache: Optional[RunCache]) -> None:
    """Attach (or detach) an on-disk run cache for all experiment runs."""
    global _CACHE
    _CACHE = cache


def set_jobs(jobs: Optional[int]) -> None:
    """Worker processes :func:`prefetch` may fan out across."""
    global _JOBS
    _JOBS = jobs


def _point(
    settings: ExperimentSettings, algorithm: str, name: str, nprocs: int
) -> SweepPoint:
    return SweepPoint(
        circuit=name,
        algorithm=algorithm,
        nprocs=1 if algorithm == "serial" else nprocs,
        scale=settings.scale,
        circuit_seed=settings.seed,
        machine=settings.machine_name,
        config=settings.config,
        pconfig=settings.pconfig,
    )


def _sweep(
    points: Sequence[SweepPoint],
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> List[RunRecord]:
    """The points' records, memoized with their serial baselines.

    Points not yet in the memo run through one engine sweep together
    with their baselines, so every record the memo holds is one the
    engine returned.  Raises when any point is lost.
    """
    wanted: Dict[str, SweepPoint] = {}
    for point in points:
        if point.algorithm != "serial":
            base = point.baseline_point()
            wanted.setdefault(base.key(), base)
        wanted.setdefault(point.key(), point)
    todo = {key: p for key, p in wanted.items() if key not in _RECORDS}
    if todo:
        outcome = run_sweep_salvage(
            list(todo.values()),
            jobs=jobs if jobs is not None else _JOBS,
            cache=cache if cache is not None else _CACHE,
        )
        if not outcome.ok:
            raise RuntimeError(
                "; ".join(f.describe() for f in outcome.failures)
            )
        _RECORDS.update(zip(todo, outcome.records))
    return [_RECORDS[p.key()] for p in points]


def _baseline(settings: ExperimentSettings, name: str) -> RoutingResult:
    return _sweep([_point(settings, "serial", name, 1)])[0].routing_result()


def _run(
    settings: ExperimentSettings, algorithm: str, name: str, nprocs: int
) -> ParallelRun:
    return _sweep([_point(settings, algorithm, name, nprocs)])[0].parallel_run()


def prefetch(
    settings: ExperimentSettings,
    algorithms: Sequence[str] = ("rowwise", "netwise", "hybrid"),
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> List[RunRecord]:
    """Execute the full circuits × algorithms × procs sweep up front.

    Fans out across worker processes (``jobs``, default the module
    setting) and primes the in-process memo, so the table/figure runners
    that follow are pure lookups.  Returns the records in sweep order.
    """
    points = [
        _point(settings, algo, name, p)
        for name in settings.circuits
        for algo in algorithms
        for p in settings.procs
    ]
    return _sweep(points, jobs=jobs, cache=cache)


def clear_cache() -> None:
    """Drop memoized runs (tests use this between parameter changes)."""
    _RECORDS.clear()


# ---------------------------------------------------------------------------
# Table 1 — circuit characteristics
# ---------------------------------------------------------------------------

def run_circuit_characteristics(settings: ExperimentSettings = ExperimentSettings()) -> Table:
    """Paper Table 1: rows / pins / cells / nets per test circuit."""
    table = Table(
        title=f"Table 1 — characteristics of test circuits (scale={settings.scale:g})",
        columns=["circuit", "rows", "pins", "cells", "nets"],
    )
    for name in settings.circuits:
        s = settings.circuit(name).stats()
        table.add_row(name, s.num_rows, s.num_pins, s.num_cells, s.num_nets)
    return table


# ---------------------------------------------------------------------------
# Tables 2–4 — scaled track quality per algorithm
# ---------------------------------------------------------------------------

def run_quality_table(
    algorithm: str, settings: ExperimentSettings = ExperimentSettings()
) -> Tuple[Table, Dict[str, Dict[int, ParallelRun]]]:
    """Paper Tables 2 (row-wise), 3 (net-wise), 4 (hybrid): track counts of
    the parallel run scaled by the serial run, per processor count."""
    number = {"rowwise": 2, "netwise": 3, "hybrid": 4}[algorithm]
    table = Table(
        title=(
            f"Table {number} — scaled track results of the {algorithm} "
            f"pin partition algorithm (scale={settings.scale:g})"
        ),
        columns=["circuit"] + [f"{p} proc" for p in settings.procs],
    )
    runs: Dict[str, Dict[int, ParallelRun]] = {}
    for name in settings.circuits:
        runs[name] = {p: _run(settings, algorithm, name, p) for p in settings.procs}
        table.add_row(name, *[runs[name][p].scaled_tracks for p in settings.procs])
    avg = [
        sum(runs[n][p].scaled_tracks for n in settings.circuits) / len(settings.circuits)
        for p in settings.procs
    ]
    table.add_row("average", *avg)
    return table, runs


# ---------------------------------------------------------------------------
# Figures 4–6 — speedups per algorithm
# ---------------------------------------------------------------------------

def run_speedup_figure(
    algorithm: str, settings: ExperimentSettings = ExperimentSettings()
) -> Tuple[str, Dict[str, Dict[int, Optional[float]]]]:
    """Paper Figures 4 (row-wise), 5 (net-wise), 6 (hybrid): modeled
    speedups over the serial run per circuit and processor count."""
    number = {"rowwise": 4, "netwise": 5, "hybrid": 6}[algorithm]
    series: Dict[str, Dict[int, Optional[float]]] = {}
    for name in settings.circuits:
        series[name] = {
            p: _run(settings, algorithm, name, p).speedup
            for p in settings.procs
            if p > 1
        }
    rendered = render_series(
        f"Figure {number} — speedup of the {algorithm} pin partition algorithm "
        f"on {settings.machine_name} (scale={settings.scale:g})",
        series,
    )
    return rendered, series


# ---------------------------------------------------------------------------
# Table 5 — the hybrid algorithm across platforms
# ---------------------------------------------------------------------------

def run_platform_table(
    settings: ExperimentSettings = ExperimentSettings(),
    platforms: Tuple[Tuple[str, Tuple[int, ...]], ...] = (
        ("SparcCenter-1000", (1, 4, 8)),
        ("Intel-Paragon", (1, 4, 16)),
    ),
) -> Tuple[Table, Dict[str, Dict[str, Dict[int, ParallelRun]]]]:
    """Paper Table 5: hybrid algorithm results (tracks, area, modeled time,
    speedup) on the Sun SparcCenter 1000 SMP and the Intel Paragon DMP.

    On the Paragon the memory gate uses the *full-scale* circuit footprint
    (32 MB nodes), reproducing the paper's serial "timeout" entries whose
    speedups are then marked with ``*`` and estimated as proportional to
    the processor count.
    """
    table = Table(
        title=f"Table 5 — hybrid pin partition across platforms (scale={settings.scale:g})",
        columns=["platform", "procs", "metric"] + list(settings.circuits),
    )
    all_runs: Dict[str, Dict[str, Dict[int, ParallelRun]]] = {}
    for machine_name, procs in platforms:
        msettings = replace(settings, machine_name=machine_name)
        runs: Dict[str, Dict[int, ParallelRun]] = {
            name: {p: _run(msettings, "hybrid", name, p) for p in procs if p > 1}
            for name in settings.circuits
        }
        all_runs[machine_name] = runs
        bases = {name: _baseline(msettings, name) for name in settings.circuits}
        table.add_row(
            machine_name, 1, "tracks", *[bases[n].total_tracks for n in settings.circuits]
        )
        table.add_row(
            machine_name, 1, "area", *[bases[n].area for n in settings.circuits]
        )
        table.add_row(
            machine_name, 1, "time (s)",
            *[
                round(bases[n].model_time, 1) if bases[n].model_time is not None else "timeout"
                for n in settings.circuits
            ],
        )
        for p in procs:
            if p <= 1:
                continue
            table.add_row(
                machine_name, p, "scaled tracks",
                *[runs[n][p].scaled_tracks for n in settings.circuits],
            )
            table.add_row(
                machine_name, p, "scaled area",
                *[runs[n][p].scaled_area for n in settings.circuits],
            )
            table.add_row(
                machine_name, p, "time (s)",
                *[round(runs[n][p].result.model_time, 1) for n in settings.circuits],
            )
            speedups = []
            for n in settings.circuits:
                s = runs[n][p].speedup
                # serial OOM: the paper assumes speedup proportional to p
                speedups.append(f"{p:.1f}*" if s is None else round(s, 2))
            table.add_row(machine_name, p, "speedup", *speedups)
    return table, all_runs


# ---------------------------------------------------------------------------
# Ablations (§5 design choices)
# ---------------------------------------------------------------------------

def run_net_partition_ablation(
    settings: ExperimentSettings = ExperimentSettings(),
    circuit_name: str = "biomed",
    nprocs: int = 8,
    algorithm: str = "netwise",
) -> Tuple[Table, Dict[str, ParallelRun]]:
    """Compare the four §5 net-partition heuristics on one circuit: load
    balance of the partition itself plus quality/speedup of the routed
    result."""
    circuit = settings.circuit(circuit_name)
    from repro.parallel.partition import RowPartition

    row_part = RowPartition.balanced(circuit, nprocs)
    table = Table(
        title=(
            f"Net partition heuristics on {circuit_name} "
            f"({algorithm}, p={nprocs}, scale={settings.scale:g})"
        ),
        columns=[
            "scheme", "pin imbalance", "steiner imbalance",
            "scaled tracks", "speedup",
        ],
    )
    runs: Dict[str, ParallelRun] = {}
    for scheme in ("center", "locus", "density", "pin_weight"):
        s = replace(settings, pconfig=replace(settings.pconfig, net_scheme=scheme))
        run = _run(s, algorithm, circuit_name, nprocs)
        runs[scheme] = run
        owner = partition_nets(
            circuit, nprocs, scheme=scheme, row_part=row_part,
            alpha=settings.pconfig.alpha,
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
    settings: ExperimentSettings = ExperimentSettings(),
    circuit_name: str = "avq_large",
    nprocs: int = 8,
    alphas: Tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 3.0),
) -> Tuple[Table, Dict[float, ParallelRun]]:
    """Sweep the pin-number-weight exponent on an avq.large-like circuit
    (the paper tunes this exponent specifically for AVQ-LARGE's >2000-pin
    clock nets)."""
    circuit = settings.circuit(circuit_name)
    from repro.parallel.partition import RowPartition

    row_part = RowPartition.balanced(circuit, nprocs)
    table = Table(
        title=(
            f"Pin-number-weight alpha sweep on {circuit_name} "
            f"(rowwise, p={nprocs}, scale={settings.scale:g})"
        ),
        columns=["alpha", "steiner imbalance", "speedup", "scaled tracks"],
    )
    runs: Dict[float, ParallelRun] = {}
    for alpha in alphas:
        s = replace(
            settings,
            pconfig=replace(settings.pconfig, net_scheme="pin_weight", alpha=alpha),
        )
        run = _run(s, "rowwise", circuit_name, nprocs)
        runs[alpha] = run
        owner = partition_nets(
            circuit, nprocs, scheme="pin_weight", row_part=row_part, alpha=alpha
        )
        summary = partition_summary(circuit, owner, nprocs)
        table.add_row(alpha, summary["steiner_imbalance"], run.speedup, run.scaled_tracks)
    return table, runs


def run_sync_frequency_ablation(
    settings: ExperimentSettings = ExperimentSettings(),
    circuit_name: str = "biomed",
    nprocs: int = 8,
    frequencies: Tuple[int, ...] = (1, 2, 4, 8, 16),
) -> Tuple[Table, Dict[int, ParallelRun]]:
    """Net-wise synchronization frequency vs quality and runtime (paper
    §5/§7.2: "If we synchronize too often, we will lose runtime
    performance"; too rarely, quality)."""
    table = Table(
        title=(
            f"Net-wise sync frequency on {circuit_name} "
            f"(p={nprocs}, scale={settings.scale:g})"
        ),
        columns=["syncs/pass", "scaled tracks", "speedup", "comm share"],
    )
    runs: Dict[int, ParallelRun] = {}
    for freq in frequencies:
        s = replace(
            settings,
            pconfig=replace(
                settings.pconfig,
                coarse_syncs_per_pass=freq,
                switch_syncs_per_pass=freq,
            ),
        )
        run = _run(s, "netwise", circuit_name, nprocs)
        runs[freq] = run
        total = sum(run.timing.rank_times) or 1.0
        comm_share = sum(run.timing.rank_comm) / total
        table.add_row(freq, run.scaled_tracks, run.speedup, comm_share)
    return table, runs
