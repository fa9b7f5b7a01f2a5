"""Sweep execution: shared baselines, cache resolution, process fan-out.

A :class:`SweepPoint` names one deterministic routing run — circuit
(by benchmark name, scale, and seed), algorithm, processor count,
machine model, and the two config dataclasses.  :func:`run_sweep`
executes a batch of points:

1. resolve cache hits (nothing deterministic is ever computed twice);
2. compute each *distinct* serial baseline exactly once — a processor
   sweep over one circuit/config shares a single serial route, and the
   ablation sweeps (which vary only ``ParallelConfig``) share it too,
   because the baseline key normalizes the parallel knobs away;
3. fan the remaining points out over a ``ProcessPoolExecutor``, each
   worker regenerating its circuit from the spec (specs pickle in
   microseconds; circuits would not) and returning a compact
   :class:`~repro.exec.record.RunRecord` dict.

``jobs=1``, a one-core host, a single task, or any pool failure all
degrade to plain in-process execution of the identical code path, so
results never depend on how they were scheduled.

The engine reads and writes records only.  Folding a cache's hit/miss
tallies into its lifetime sidecar is the job of the cache's owner, once,
when it is done with the cache (see :meth:`RunCache.persist_stats`).
"""

from __future__ import annotations

import dataclasses
import logging
import os
import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.circuits import mcnc
from repro.circuits.model import CircuitStats
from repro.exec.cache import RunCache, cache_key
from repro.exec.record import RunRecord, record_from_results
from repro.parallel.driver import ParallelConfig, route_parallel, serial_baseline
from repro.perfmodel.machine import MACHINES
from repro.twgr.config import RouterConfig
from repro.twgr.result import RoutingResult

#: environment override for the default worker count
JOBS_ENV = "REPRO_JOBS"

#: process exit status for a sweep that completed but lost points —
#: distinct from success (0) and from hard failure (1) so callers can
#: script around partial results
DEGRADED_EXIT = 3

#: ceiling on one retry sleep; exponential growth stops here so a flaky
#: point can never stall a sweep (or a service worker) for minutes
DEFAULT_BACKOFF_CAP_S = 2.0


def retry_backoff_s(
    backoff_s: float,
    attempt: int,
    cap_s: float = DEFAULT_BACKOFF_CAP_S,
    jitter_key: str = "",
) -> float:
    """Host-seconds to sleep before retry ``attempt`` (2-based).

    Exponential (``backoff_s`` doubling per retry) but *capped* at
    ``cap_s``, then spread by deterministic jitter in ``[0.5x, 1.5x]``
    drawn from ``(jitter_key, attempt)``.  The jitter is a pure function
    of its inputs — no global RNG, no wall clock — so seeded chaos
    replays sleep bit-identically, while N coalesced clients retrying
    the same flaky point (distinct jitter keys) fan out instead of
    thundering in lockstep.
    """
    if backoff_s <= 0:
        return 0.0
    base = min(backoff_s * (2 ** (attempt - 2)), max(cap_s, backoff_s))
    rnd = random.Random(f"{jitter_key}:retry{attempt}").random()
    return base * (0.5 + rnd)

log = logging.getLogger("repro.exec")


def _config_dict(config: Any) -> Dict[str, Any]:
    """``dataclasses.asdict`` of a config dataclass, minus its deep copy.

    Config fields hold scalars or nested config dataclasses
    (``RouterConfig.weights``), so this shallow walk builds an equal dict
    and hence byte-identical canonical JSON: no content address moves.
    """
    out: Dict[str, Any] = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        out[f.name] = (
            _config_dict(value) if dataclasses.is_dataclass(value) else value
        )
    return out


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One deterministic routing run, identified by value.

    Circuits are referenced by benchmark name + scale + seed (the
    generator is seeded, so this fully determines the netlist) rather
    than by object, which keeps points hashable, picklable, and
    content-addressable.
    """

    circuit: str
    algorithm: str = "serial"
    nprocs: int = 1
    scale: float = 1.0
    circuit_seed: int = 0
    machine: str = "SparcCenter-1000"
    config: RouterConfig = field(default_factory=RouterConfig)
    pconfig: ParallelConfig = field(default_factory=ParallelConfig)
    #: named SPMD fault plan injected into the routed run ("" = none);
    #: see :data:`repro.faults.NAMED_PLANS`.  Part of the point's
    #: identity: a faulted run is a different deterministic computation,
    #: so it gets its own cache entry.
    fault_plan: str = ""
    #: seed of the fault plan (which rank crashes, delay magnitudes)
    fault_seed: int = 0

    def validate(self) -> None:
        """Raise early on specs the workers would reject later."""
        mcnc.spec(self.circuit)  # KeyError with the benchmark list
        machine = MACHINES.get(self.machine)
        if machine is None:
            raise ValueError(
                f"unknown machine {self.machine!r}; choose from {sorted(MACHINES)}"
            )
        if self.algorithm != "serial":
            if self.nprocs < 1:
                raise ValueError("nprocs must be >= 1")
            if self.nprocs > machine.max_procs:
                raise ValueError(
                    f"{machine.name} has only {machine.max_procs} processors, "
                    f"asked for {self.nprocs}"
                )
        if self.fault_plan:
            from repro.faults import NAMED_PLANS

            if self.fault_plan not in NAMED_PLANS:
                raise ValueError(
                    f"unknown fault plan {self.fault_plan!r}; "
                    f"choose from {sorted(NAMED_PLANS)}"
                )
            if self.algorithm == "serial":
                raise ValueError(
                    "fault plans inject into the SPMD runtime; "
                    "serial points cannot carry one"
                )
        self.config.validate()

    def spec(self) -> Dict[str, Any]:
        """Canonical JSON-safe description — the cache-key payload.

        Serial runs drop the parallel knobs so every ``ParallelConfig``
        ablation shares one baseline entry.
        """
        spec: Dict[str, Any] = {
            "circuit": self.circuit,
            "scale": self.scale,
            "circuit_seed": self.circuit_seed,
            "algorithm": self.algorithm,
            "nprocs": 1 if self.algorithm == "serial" else self.nprocs,
            "machine": self.machine,
            "config": _config_dict(self.config),
        }
        if self.algorithm != "serial":
            spec["pconfig"] = _config_dict(self.pconfig)
        if self.fault_plan:
            # only faulted points carry the keys, so every pre-existing
            # cache entry keeps its content address
            spec["fault_plan"] = self.fault_plan
            spec["fault_seed"] = self.fault_seed
        return spec

    def key(self) -> str:
        """Content address of this point (includes the code salt)."""
        return cache_key(self.spec())

    def baseline_point(self) -> "SweepPoint":
        """The serial run this point's quality is scaled against.

        Fault knobs are cleared: the baseline of a faulted run is the
        clean serial route, so faulted and clean sweeps share it.
        """
        return replace(
            self, algorithm="serial", nprocs=1, pconfig=ParallelConfig(),
            fault_plan="", fault_seed=0,
        )

    def describe(self) -> str:
        """Short human-readable label (progress/benchmark output)."""
        if self.algorithm == "serial":
            return f"{self.circuit}@{self.scale:g} serial [{self.machine}]"
        label = (
            f"{self.circuit}@{self.scale:g} {self.algorithm} "
            f"p={self.nprocs} [{self.machine}]"
        )
        if self.fault_plan:
            label += f" +{self.fault_plan}"
        return label


def _full_scale_stats(name: str) -> CircuitStats:
    """Full-size benchmark counts, which gate the per-node memory model
    (the Paragon "timeout" entries of Table 5) even when the routed
    instance is scaled down."""
    stats = mcnc.spec(name)
    return CircuitStats(
        num_rows=stats.rows,
        num_pins=int(stats.nets * stats.mean_degree + sum(stats.clock_net_degrees)),
        num_cells=stats.cells,
        num_nets=stats.nets,
    )


def _execute(point: SweepPoint, baseline: Optional[RoutingResult]) -> RunRecord:
    """Compute one point in this process (the only code path that routes).

    Every execution is traced — step spans are cheap relative to routing —
    so all records carry a :class:`~repro.obs.profile.RunProfile` and
    cached replays keep their telemetry.  Tracing is passive (see
    :mod:`repro.obs`): routed metrics are bit-identical with or without it.
    """
    from repro.obs.profile import profile_from_tracer
    from repro.obs.tracer import Tracer

    circuit = mcnc.generate(point.circuit, scale=point.scale, seed=point.circuit_seed)
    machine = MACHINES[point.machine]
    tracer = Tracer()
    t0 = time.perf_counter()
    if point.algorithm == "serial":
        result = serial_baseline(
            circuit,
            point.config,
            machine=machine,
            memory_stats=_full_scale_stats(point.circuit),
            tracer=tracer,
        )
        run_result = result
    else:
        faults = None
        if point.fault_plan:
            from repro.faults import make_plan

            faults = make_plan(point.fault_plan, point.nprocs, point.fault_seed)
        run = route_parallel(
            circuit,
            algorithm=point.algorithm,
            nprocs=point.nprocs,
            machine=machine,
            config=point.config,
            pconfig=point.pconfig,
            baseline=baseline,
            compute_baseline=False,
            obs=tracer,
            faults=faults,
        )
        run_result = run.result
    host_seconds = time.perf_counter() - t0
    # stamp the transport only when it is a real-parallelism one: serial
    # points have no transport, and the in-process default stays implicit
    # so profiles recorded before the transport layer stay byte-stable
    transport = (
        "" if point.algorithm == "serial"
        else point.config.resolved_transport()
    )
    profile = profile_from_tracer(
        tracer,
        circuit=point.circuit,
        algorithm=point.algorithm,
        nprocs=point.nprocs,
        scale=point.scale,
        seed=point.circuit_seed,
        machine=machine,
        transport="" if transport == "inprocess" else transport,
        model_time=run_result.model_time,
    )
    if point.algorithm == "serial":
        return record_from_results(
            point, result, profile=profile.to_dict(), key=point.key(),
            host_seconds=host_seconds,
        )
    return record_from_results(
        point,
        run.result,
        timing=run.timing,
        baseline=baseline,
        profile=profile.to_dict(),
        key=point.key(),
        host_seconds=host_seconds,
    )


def _observe_record(record: RunRecord) -> RunRecord:
    """Parent-side latency bookkeeping for freshly computed points.

    Folds the point's host wall time into the process-wide
    ``engine.point_host_ms`` histogram, which `repro profile` and
    `repro metrics export` surface as p50/p95/p99 — cache replays never
    count (their ``host_seconds`` is the replay cost, not a route).
    """
    from repro.obs.metrics import REGISTRY

    if not record.cached:
        REGISTRY.histogram("engine.point_host_ms").observe(
            record.host_seconds * 1e3
        )
    return record


def _worker(task: Tuple[SweepPoint, Optional[Dict[str, Any]]]) -> Dict[str, Any]:
    """Process-pool entry point: compute one point, return its dict form."""
    from repro.analysis.records import result_from_dict  # avoids an import cycle

    point, baseline_dict = task
    baseline = result_from_dict(baseline_dict) if baseline_dict is not None else None
    return _execute(point, baseline).to_dict()


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: explicit > ``REPRO_JOBS`` > host cores."""
    if jobs is not None and jobs > 0:
        return jobs
    env = os.environ.get(JOBS_ENV, "").strip()
    if env:
        try:
            parsed = int(env)
        except ValueError:
            parsed = 0
        if parsed > 0:
            return parsed
    return os.cpu_count() or 1


def _map_tasks(
    tasks: Sequence[Tuple[SweepPoint, Optional[Dict[str, Any]]]],
    jobs: int,
    worker: Any = None,
) -> List[Any]:
    """Run tasks across the pool (or inline), preserving order.

    Falls back to in-process execution only for *pool* failures — the
    pool cannot be created (sandboxed host, fork limits) or dies mid-map
    (``BrokenProcessPool``, ``OSError``).  The worker is a pure function,
    so rerunning inline yields the identical records.  A deterministic
    exception raised *by the worker* is a result, not a pool failure: it
    propagates to the caller instead of silently rerunning the whole
    batch inline (which used to mask the error until the inline rerun hit
    it again — or worse, hid genuine nondeterminism).
    """
    worker = worker or _worker
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    try:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        pool = ProcessPoolExecutor(max_workers=min(jobs, len(tasks)))
    except (ImportError, OSError, PermissionError, RuntimeError, ValueError) as exc:
        log.warning(
            "process pool unavailable (%s: %s); running %d task(s) inline",
            type(exc).__name__, exc, len(tasks),
        )
        return [worker(t) for t in tasks]
    try:
        with pool:
            return list(pool.map(worker, tasks))
    except (BrokenProcessPool, OSError) as exc:
        log.warning(
            "process pool died (%s: %s); rerunning %d task(s) inline",
            type(exc).__name__, exc, len(tasks),
        )
        return [worker(t) for t in tasks]


def execute_point(
    point: SweepPoint,
    cache: Optional[RunCache] = None,
    baseline_record: Optional[RunRecord] = None,
    compute_baseline: bool = True,
) -> RunRecord:
    """Execute (or replay) a single point in-process.

    Parallel points need a serial baseline for scaled metrics; pass one
    as ``baseline_record`` to share it across calls, or let this resolve
    it (through the cache when one is given).  ``compute_baseline=False``
    skips the baseline entirely, mirroring
    :func:`~repro.parallel.driver.route_parallel`.
    """
    point.validate()
    key = point.key()
    if cache is not None:
        payload = cache.get(key)
        if payload is not None:
            return RunRecord.from_dict(payload, cached=True)
    baseline: Optional[RoutingResult] = None
    if point.algorithm != "serial":
        if baseline_record is None and compute_baseline:
            baseline_record = execute_point(point.baseline_point(), cache=cache)
        if baseline_record is not None:
            baseline = baseline_record.routing_result()
    record = _observe_record(_execute(point, baseline))
    if cache is not None:
        cache.put(key, record.to_dict())
    return record


def run_sweep(
    points: Sequence[SweepPoint],
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> List[RunRecord]:
    """Execute a batch of points; returns records in input order.

    Cache hits are replayed without computing; each distinct serial
    baseline is computed once and shared by every parallel point that
    scales against it; everything else fans out across ``jobs`` worker
    processes (default: :func:`resolve_jobs`).
    """
    points = list(points)
    for p in points:
        p.validate()
    njobs = resolve_jobs(jobs)
    keys = [p.key() for p in points]
    records: List[Optional[RunRecord]] = [None] * len(points)

    if cache is not None:
        for i, key in enumerate(keys):
            payload = cache.get(key)
            if payload is not None:
                records[i] = RunRecord.from_dict(payload, cached=True)

    todo = [i for i, r in enumerate(records) if r is None]

    # -- phase 1: each distinct serial baseline, exactly once ------------
    base_points: Dict[str, SweepPoint] = {}
    for i in todo:
        p = points[i]
        bp = p if p.algorithm == "serial" else p.baseline_point()
        base_points.setdefault(bp.key(), bp)
    base_records: Dict[str, RunRecord] = {}
    missing: List[Tuple[str, SweepPoint]] = []
    for bkey, bp in base_points.items():
        payload = cache.get(bkey) if cache is not None else None
        if payload is not None:
            base_records[bkey] = RunRecord.from_dict(payload, cached=True)
        else:
            missing.append((bkey, bp))
    if missing:
        outputs = _map_tasks([(bp, None) for _, bp in missing], njobs)
        for (bkey, _bp), out in zip(missing, outputs):
            rec = _observe_record(RunRecord.from_dict(out))
            base_records[bkey] = rec
            if cache is not None:
                cache.put(bkey, out)

    # -- phase 2: the parallel points, against their shared baselines ----
    tasks: List[Tuple[SweepPoint, Optional[Dict[str, Any]]]] = []
    task_slots: List[int] = []
    for i in todo:
        p = points[i]
        if p.algorithm == "serial":
            records[i] = base_records[p.key()]
            continue
        tasks.append((p, base_records[p.baseline_point().key()].result))
        task_slots.append(i)
    if tasks:
        outputs = _map_tasks(tasks, njobs)
        for i, out in zip(task_slots, outputs):
            records[i] = _observe_record(RunRecord.from_dict(out))
            if cache is not None:
                cache.put(keys[i], out)

    return [r for r in records if r is not None]


# -- failure-containing execution ---------------------------------------


def _safe_worker(
    task: Tuple[SweepPoint, Optional[Dict[str, Any]]],
) -> Tuple[str, Any, str]:
    """Pool entry point that converts exceptions into values.

    Returns ``("ok", record_dict, "")`` or ``("err", error_type_name,
    message)`` — so one failing point never tears down the batch, and
    the parent can decide per point whether to retry or salvage.
    """
    try:
        return ("ok", _worker(task), "")
    except BaseException as exc:  # contained: reported per point
        return ("err", type(exc).__name__, str(exc))


@dataclass(slots=True)
class PointFailure:
    """One sweep point that still failed after every allowed retry."""

    point: SweepPoint
    error_type: str
    message: str
    attempts: int

    def describe(self) -> str:
        return (
            f"{self.point.describe()}: {self.error_type}: {self.message} "
            f"(after {self.attempts} attempt{'s' if self.attempts != 1 else ''})"
        )


@dataclass(slots=True)
class SweepOutcome:
    """What :func:`run_sweep_salvage` produced: survivors plus a ledger.

    ``records`` holds every point that succeeded (in input order);
    ``failures`` every point that exhausted its retries.  ``exit_code``
    maps that to a process status: 0 when clean, :data:`DEGRADED_EXIT`
    when results were salvaged around failures.
    """

    records: List[RunRecord]
    failures: List[PointFailure]
    retries: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def exit_code(self) -> int:
        return 0 if not self.failures else DEGRADED_EXIT

    def summary(self) -> str:
        parts = [
            f"{len(self.records)} point(s) completed",
            f"{len(self.failures)} failed",
        ]
        if self.retries:
            parts.append(f"{self.retries} retr{'ies' if self.retries != 1 else 'y'}")
        return ", ".join(parts)


def _salvage_attempt(
    point: SweepPoint,
    baseline_dict: Optional[Dict[str, Any]],
    attempt: int,
    faults: Any,
) -> Tuple[str, Any, str]:
    """One inline attempt at one point, behind the parent-side fault gate.

    ``faults.on_point`` runs in the parent (process-pool workers never
    see the plan object), so injected point failures are deterministic
    regardless of how the work is scheduled.
    """
    from repro.faults.plan import InjectedFault

    try:
        faults.on_point(point.describe(), attempt)
    except InjectedFault as exc:
        return ("err", "InjectedFault", str(exc))
    return _safe_worker((point, baseline_dict))


def run_sweep_salvage(
    points: Sequence[SweepPoint],
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
    faults: Optional[Any] = None,
    max_retries: int = 2,
    backoff_s: float = 0.05,
    backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
) -> SweepOutcome:
    """Execute a batch of points, containing per-point failures.

    Unlike :func:`run_sweep` — which lets the first worker exception
    abort the whole batch — this variant retries each failed point up to
    ``max_retries`` more times (exponential backoff starting at
    ``backoff_s`` host-seconds, capped at ``backoff_cap_s`` and spread
    with deterministic per-point jitter — see :func:`retry_backoff_s`)
    and then salvages everything else: the
    returned :class:`SweepOutcome` carries all surviving records plus a
    :class:`PointFailure` ledger, and ``outcome.exit_code`` is
    :data:`DEGRADED_EXIT` when anything was lost.

    ``faults`` accepts a :class:`~repro.faults.plan.FaultPlan` whose
    ``on_point``/``on_cache`` hooks inject deterministic transient
    failures (consulted parent-side, so determinism survives process
    pools).  Cache write errors are contained and counted
    (``cache.put_errors``), never fatal — a record that could not be
    cached is still a record.
    """
    from repro.faults.plan import NULL_FAULT_PLAN
    from repro.obs.metrics import REGISTRY

    if faults is None:
        faults = NULL_FAULT_PLAN
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    points = list(points)
    for p in points:
        p.validate()
    njobs = resolve_jobs(jobs)
    keys = [p.key() for p in points]
    records: List[Optional[RunRecord]] = [None] * len(points)
    failures: Dict[int, PointFailure] = {}
    retries = 0

    def _contained_put(key: str, payload: Dict[str, Any]) -> None:
        if cache is None:
            return
        try:
            cache.put(key, payload)
        except OSError as exc:
            REGISTRY.counter("cache.put_errors").inc()
            log.warning("cache write failed for %s (%s); continuing", key, exc)

    def _run_with_retries(
        i: int, point: SweepPoint, baseline_dict: Optional[Dict[str, Any]],
        first: Optional[Tuple[str, Any, str]] = None,
    ) -> Optional[Dict[str, Any]]:
        """Drive one point to success or a PointFailure; returns its dict."""
        nonlocal retries
        attempt = 1
        out = first if first is not None else _salvage_attempt(
            point, baseline_dict, attempt, faults
        )
        while out[0] == "err" and attempt <= max_retries:
            attempt += 1
            retries += 1
            REGISTRY.counter("engine.retries").inc()
            time.sleep(retry_backoff_s(
                backoff_s, attempt, cap_s=backoff_cap_s,
                jitter_key=point.key(),
            ))
            out = _salvage_attempt(point, baseline_dict, attempt, faults)
        if out[0] == "err":
            failures[i] = PointFailure(
                point=point, error_type=out[1], message=out[2], attempts=attempt
            )
            REGISTRY.counter("engine.failed_points").inc()
            log.warning("point lost: %s", failures[i].describe())
            return None
        payload = out[1]
        if attempt > 1:
            payload = dict(payload)
            payload["attempts"] = attempt
        return payload

    if cache is not None:
        for i, key in enumerate(keys):
            payload = cache.get(key)
            if payload is not None:
                records[i] = RunRecord.from_dict(payload, cached=True)
    todo = [i for i, r in enumerate(records) if r is None]

    # -- phase 1: distinct serial baselines (shared, so a lost baseline
    #    fails every point that scales against it) ----------------------
    base_points: Dict[str, SweepPoint] = {}
    for i in todo:
        p = points[i]
        bp = p if p.algorithm == "serial" else p.baseline_point()
        base_points.setdefault(bp.key(), bp)
    base_records: Dict[str, RunRecord] = {}
    base_failed: Dict[str, str] = {}
    missing: List[Tuple[str, SweepPoint]] = []
    for bkey, bp in base_points.items():
        payload = cache.get(bkey) if cache is not None else None
        if payload is not None:
            base_records[bkey] = RunRecord.from_dict(payload, cached=True)
        else:
            missing.append((bkey, bp))
    for bkey, bp in missing:
        payload = _run_with_retries(-1, bp, None)
        if payload is None:
            lost = failures.pop(-1)
            base_failed[bkey] = (
                f"serial baseline failed: {lost.error_type}: {lost.message}"
            )
            continue
        base_records[bkey] = _observe_record(RunRecord.from_dict(payload))
        _contained_put(bkey, payload)

    # -- phase 2: the remaining points ----------------------------------
    tasks: List[Tuple[SweepPoint, Optional[Dict[str, Any]]]] = []
    task_slots: List[int] = []
    for i in todo:
        p = points[i]
        bkey = p.key() if p.algorithm == "serial" else p.baseline_point().key()
        if p.algorithm == "serial":
            if bkey in base_records:
                records[i] = base_records[bkey]
            else:
                failures[i] = PointFailure(
                    point=p, error_type="BaselineFailure",
                    message=base_failed.get(bkey, "serial baseline failed"),
                    attempts=max_retries + 1,
                )
                REGISTRY.counter("engine.failed_points").inc()
            continue
        if bkey not in base_records:
            failures[i] = PointFailure(
                point=p, error_type="BaselineFailure",
                message=base_failed.get(bkey, "serial baseline failed"),
                attempts=max_retries + 1,
            )
            REGISTRY.counter("engine.failed_points").inc()
            continue
        tasks.append((p, base_records[bkey].result))
        task_slots.append(i)

    if tasks:
        # first attempts fan out across the pool; the parent-side fault
        # gate pulls injected failures out of the batch beforehand
        gated: List[Optional[Tuple[str, Any, str]]] = [None] * len(tasks)
        pooled: List[Tuple[SweepPoint, Optional[Dict[str, Any]]]] = []
        pooled_slots: List[int] = []
        from repro.faults.plan import InjectedFault

        for j, (p, bdict) in enumerate(tasks):
            try:
                faults.on_point(p.describe(), 1)
            except InjectedFault as exc:
                gated[j] = ("err", "InjectedFault", str(exc))
                continue
            pooled.append((p, bdict))
            pooled_slots.append(j)
        if pooled:
            outputs = _map_tasks(pooled, njobs, worker=_safe_worker)
            for j, out in zip(pooled_slots, outputs):
                gated[j] = out
        for j, first in enumerate(gated):
            i = task_slots[j]
            p, bdict = tasks[j]
            payload = _run_with_retries(i, p, bdict, first=first)
            if payload is None:
                continue
            records[i] = _observe_record(RunRecord.from_dict(payload))
            _contained_put(keys[i], payload)

    survivors = [r for r in records if r is not None]
    if failures:
        REGISTRY.counter("engine.degraded_sweeps").inc()
    return SweepOutcome(
        records=survivors,
        failures=[failures[i] for i in sorted(failures)],
        retries=retries,
    )
