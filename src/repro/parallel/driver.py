"""Top-level entry point for parallel routing runs.

:func:`route_parallel` executes one of the paper's three algorithms as an
SPMD program on the simulated MPI runtime, with per-rank logical clocks
driven by a machine model, and returns the routing result together with a
timing report (modeled elapsed time, speedup over the modeled serial run,
per-rank balance).  The serial baseline is routed with the identical
config/seed so quality ratios ("scaled tracks") are apples-to-apples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.circuits.model import Circuit, CircuitStats
from repro.gcutil import gc_paused
from repro.mpi.runtime import run_spmd
from repro.perfmodel.machine import MachineModel, SPARCCENTER_1000
from repro.perfmodel.memory import estimate_circuit_bytes
from repro.perfmodel.report import TimingReport
from repro.twgr.config import RouterConfig
from repro.twgr.result import RoutingResult
from repro.twgr.router import GlobalRouter

ALGORITHMS = ("rowwise", "netwise", "hybrid")


@dataclass(frozen=True, slots=True)
class ParallelConfig:
    """Knobs specific to the parallel algorithms (paper §4–§6)."""

    #: net partition heuristic used for parallel Steiner-tree building
    #: (and for net ownership in the net-wise algorithm)
    net_scheme: str = "pin_weight"
    #: exponent of the pin-number-weight partition
    alpha: float = 2.0
    #: net-owner heuristic for the hybrid whole-net connection step
    connect_scheme: str = "density"
    #: net-wise: congestion-map allreduces per coarse pass
    coarse_syncs_per_pass: int = 4
    #: net-wise: channel-density syncs per switchable pass
    switch_syncs_per_pass: int = 4
    #: net-wise: what the switch-step sync exchanges.  ``"scalar"`` (the
    #: default, and the paper's affordable operating point) allreduces
    #: per-channel density *counts* — cheap, but count offsets cancel out
    #: of the flip-gain rule, so each rank effectively optimizes blind to
    #: the other ranks' spans ("the blindness of each processor", §7.2).
    #: ``"profile"`` allgathers every rank's span intervals — the costly
    #: full synchronization that restores near-serial quality (§5: "the
    #: synchronization is very costly").
    switch_sync_mode: str = "scalar"


@dataclass(slots=True)
class ParallelRun:
    """Result bundle of one parallel routing run."""

    result: RoutingResult
    timing: TimingReport
    baseline: Optional[RoutingResult] = None

    @property
    def speedup(self) -> Optional[float]:
        """Modeled speedup over the serial baseline (None without one)."""
        return self.timing.speedup

    @property
    def scaled_tracks(self) -> Optional[float]:
        """Track count relative to the serial baseline."""
        if self.baseline is None:
            return None
        return self.result.scaled_tracks(self.baseline)

    @property
    def scaled_area(self) -> Optional[float]:
        """Area relative to the serial baseline."""
        if self.baseline is None:
            return None
        return self.result.scaled_area(self.baseline)

    def summary(self) -> str:
        """One-line quality + timing summary."""
        parts = [self.result.summary(), self.timing.summary()]
        st = self.scaled_tracks
        if st is not None:
            parts.append(f"scaled tracks={st:.3f}")
        return " | ".join(parts)


def _program_for(algorithm: str) -> Callable:
    if algorithm == "rowwise":
        from repro.parallel.rowwise import rowwise_program

        return rowwise_program
    if algorithm == "netwise":
        from repro.parallel.netwise import netwise_program

        return netwise_program
    if algorithm == "hybrid":
        from repro.parallel.hybrid import hybrid_program

        return hybrid_program
    raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")


def serial_baseline(
    circuit: Circuit,
    config: Optional[RouterConfig] = None,
    machine: Optional[MachineModel] = None,
    memory_stats: Optional[CircuitStats] = None,
    tracer: Optional[object] = None,
) -> RoutingResult:
    """Route serially and, with a machine model, fill ``model_time``.

    ``model_time`` stays ``None`` when the machine's per-node memory could
    not hold the circuit (the Paragon "timeout" situation of Table 5 —
    ``memory_stats`` lets callers gate on the full-scale circuit's
    footprint while routing a scaled-down instance).  ``tracer`` accepts a
    :class:`~repro.obs.tracer.Tracer` for step-level spans.
    """
    from repro.obs.tracer import NULL_TRACER

    config = config or RouterConfig()
    result = GlobalRouter(config).route(
        circuit, tracer=tracer if tracer is not None else NULL_TRACER
    )
    if machine is not None:
        footprint = estimate_circuit_bytes(memory_stats or circuit)
        if machine.fits_in_memory(footprint):
            result.model_time = sum(
                machine.work_seconds(kind, units)
                for kind, units in result.work_units.items()
            )
    return result


def route_parallel(
    circuit: Circuit,
    algorithm: str = "hybrid",
    nprocs: int = 8,
    machine: MachineModel = SPARCCENTER_1000,
    config: Optional[RouterConfig] = None,
    pconfig: Optional[ParallelConfig] = None,
    baseline: Optional[RoutingResult] = None,
    compute_baseline: bool = True,
    memory_stats: Optional[CircuitStats] = None,
    obs: Optional[object] = None,
    faults: Optional[object] = None,
    transport: Optional[str] = None,
) -> ParallelRun:
    """Route ``circuit`` with ``nprocs`` ranks of ``algorithm``.

    ``baseline`` supplies a precomputed serial run (so sweeps over
    processor counts route serially once); ``compute_baseline=False``
    skips the serial run entirely (``speedup``/``scaled_tracks`` become
    unavailable).  ``obs`` accepts a :class:`~repro.obs.tracer.Tracer`
    for per-rank step spans (simulated-clock timestamps, per-step work
    and the run's communication events included; see
    :mod:`repro.mpi.trace`);
    ``faults`` a :class:`~repro.faults.plan.FaultPlan` for deterministic
    fault injection (a crash surfaces as
    :class:`~repro.mpi.runtime.RankError` with a containment report).
    ``transport`` overrides ``config.transport`` (``None`` defers to the
    config, whose default is the deterministic ``inprocess``).  Results
    are transport-independent; only the ``measured_*`` timing fields
    change.
    """
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    if nprocs > machine.max_procs:
        raise ValueError(
            f"{machine.name} has only {machine.max_procs} processors, asked for {nprocs}"
        )
    config = config or RouterConfig()
    pconfig = pconfig or ParallelConfig()
    program = _program_for(algorithm)
    if transport is None:
        transport = config.transport

    # Same rationale as GlobalRouter.route_with_artifacts: the SPMD ranks'
    # working sets are cycle-free, so collector passes mid-run reclaim
    # nothing — suspend collection for the bounded routing phase.  The
    # shared guard restores the collector even when a fault-injected rank
    # crash propagates out as RankError.
    with gc_paused():
        spmd = run_spmd(
            nprocs, program, args=(circuit, config, pconfig), machine=machine,
            obs=obs, faults=faults, transport=transport,
        )
    result: RoutingResult = spmd.values[0]
    if result is None:
        raise RuntimeError("rank 0 returned no result")
    result.model_time = spmd.elapsed

    measured_serial_s: Optional[float] = None
    if baseline is None and compute_baseline:
        t0 = time.perf_counter()
        baseline = serial_baseline(
            circuit, config, machine=machine, memory_stats=memory_stats
        )
        measured_serial_s = time.perf_counter() - t0

    timing = TimingReport(
        machine=machine.name,
        nprocs=nprocs,
        rank_times=spmd.rank_times,
        rank_compute=[c.compute_seconds() if c else 0.0 for c in spmd.clocks],
        rank_comm=[c.comm_seconds if c else 0.0 for c in spmd.clocks],
        rank_idle=[c.idle_seconds if c else 0.0 for c in spmd.clocks],
        serial_time=baseline.model_time if baseline is not None else None,
        serial_oom=(baseline is not None and baseline.model_time is None),
        transport=spmd.transport,
        measured_rank_s=list(spmd.measured_rank_s),
        measured_wall_s=spmd.measured_wall_s or None,
        measured_serial_s=measured_serial_s,
    )
    return ParallelRun(result=result, timing=timing, baseline=baseline)
