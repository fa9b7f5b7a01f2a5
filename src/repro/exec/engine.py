"""Sweep execution: shared baselines, cache resolution, process fan-out.

A :class:`SweepPoint` names one deterministic routing run — circuit
(by benchmark name, scale, and seed), algorithm, processor count,
machine model, and the two config dataclasses.  :func:`run_sweep_salvage`
is the one driver that executes a batch of points:

1. look up each distinct key in the cache once (nothing deterministic is
   ever computed twice);
2. compute each *distinct* serial baseline exactly once — a processor
   sweep over one circuit/config shares a single serial route, and the
   ablation sweeps (which vary only ``ParallelConfig``) share it too,
   because the baseline key normalizes the parallel knobs away;
3. run the remaining points against their baselines, so every parallel
   record it returns or stores carries the baseline it was scaled by.

Steps 2 and 3 share :func:`_run_tasks`: a parent-side fault gate, first
attempts fanned out over a ``ProcessPoolExecutor`` (each worker
builds its circuit from the spec — specs pickle in microseconds,
circuits would not — and returns its
:class:`~repro.exec.record.RunRecord`, run spans included, or its
:class:`PointFailure`), then inline retries of the points that failed.
``jobs=1``, a one-core host, a single task, or any pool failure all
degrade to plain in-process execution of the identical code path, so
results never depend on how they were scheduled.

Circuits come from :func:`build_circuit`, the engine's one build site: a
process-wide LRU memo, bounded by :data:`CIRCUIT_MEMO_PINS` pins, that
hands every caller of one ``(name, scale, seed)`` the same object.  A
fresh parallel point and its serial baseline build their circuit once,
and a long-lived process (the service) builds each circuit once while
it stays in the memo.  A pool worker holds its own memo: it inherits
the parent's entries when it forks, and what it builds stays in it.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.circuits import mcnc
from repro.circuits.model import Circuit, CircuitStats
from repro.exec.cache import RunCache, cache_key
from repro.exec.record import (
    RunRecord,
    record_from_results,
    result_from_dict,
    timing_to_dict,
)
from repro.faults.report import RunFailure
from repro.parallel.driver import ParallelConfig, route_parallel, serial_baseline
from repro.perfmodel.machine import MACHINES
from repro.twgr.config import RouterConfig
from repro.twgr.result import RoutingResult

#: process exit status for a sweep that completed but lost points —
#: distinct from success (0) and from hard failure (1) so callers can
#: script around partial results
DEGRADED_EXIT = 3

#: ceiling on one retry sleep; exponential growth stops here so a flaky
#: point can never stall a sweep (or a service worker) for minutes
BACKOFF_CAP_S = 2.0


def retry_backoff_s(backoff_s: float, attempt: int, jitter_key: str = "") -> float:
    """Host-seconds to sleep before retry ``attempt`` (2-based).

    Exponential (``backoff_s`` doubling per retry) but *capped* at
    :data:`BACKOFF_CAP_S`, then spread by deterministic jitter in
    ``[0.5x, 1.5x]`` drawn from ``(jitter_key, attempt)``.  The jitter is
    a pure function of its inputs — no global RNG, no wall clock — so
    seeded chaos replays sleep bit-identically, while N coalesced clients
    retrying the same flaky point (distinct jitter keys) fan out instead
    of thundering in lockstep.
    """
    if backoff_s <= 0:
        return 0.0
    base = min(backoff_s * (2 ** (attempt - 2)), max(BACKOFF_CAP_S, backoff_s))
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


#: pin budget of the circuit memo: the largest circuit (avq_large@1.0,
#: 79,888 pins, 27 MB by tracemalloc) with room to spare, or every small
#: circuit a service stream touches.  Bounded by pins rather than
#: entries, so neither many small circuits thrash it nor full-size ones
#: pile up: a stream of full-size routes keeps about the one circuit it
#: is routing, which it holds anyway.
CIRCUIT_MEMO_PINS = 100_000

#: (canonical name, scale, seed) -> built circuit, least recently used first
_circuits: "OrderedDict[Tuple[str, float, int], Circuit]" = OrderedDict()
_circuits_lock = threading.Lock()


def _new_circuits_lock() -> None:
    # a child forked while another thread held the lock would inherit it
    # held forever: pool workers and multiprocess ranks fork from
    # service threads
    global _circuits_lock
    _circuits_lock = threading.Lock()


os.register_at_fork(after_in_child=_new_circuits_lock)


def build_circuit(name: str, scale: float, seed: int) -> Circuit:
    """``mcnc.generate(name, scale, seed)``, built once per process.

    Every caller of one key shares one :class:`Circuit` object — safe
    because routing never mutates its input (see
    ``tests/parallel/test_input_unchanged.py``) — so a parallel point and
    its serial baseline route the same netlist built once.  An alias
    and its canonical name share one entry.  Once the memo holds more
    than :data:`CIRCUIT_MEMO_PINS` pins, the least recently used circuits
    are dropped.  The lock covers only the dict operations, never a
    build: two threads that miss on one key at once both build, and the
    later one returns the entry the earlier one inserted.

    Counts ``engine.circuit_builds`` and ``engine.circuit_reuses`` in the
    calling process's registry only.  A sweep that fans several points
    out to pool workers builds there, and the workers' counts never
    reach the parent; the service routes with ``jobs=1`` and counts
    every build.
    """
    from repro.obs.metrics import REGISTRY

    key = (mcnc.spec(name).name, scale, seed)
    with _circuits_lock:
        circuit = _circuits.get(key)
        if circuit is not None:
            _circuits.move_to_end(key)
    if circuit is not None:
        REGISTRY.counter("engine.circuit_reuses").inc()
        return circuit
    built = mcnc.generate(name, scale=scale, seed=seed)
    REGISTRY.counter("engine.circuit_builds").inc()
    with _circuits_lock:
        circuit = _circuits.setdefault(key, built)
        _circuits.move_to_end(key)
        pins = sum(len(c.pins) for c in _circuits.values())
        while pins > CIRCUIT_MEMO_PINS:
            _, dropped = _circuits.popitem(last=False)
            pins -= len(dropped.pins)
    return circuit


def clear_circuit_memo() -> None:
    """Forget every memoized circuit (tests that patch the generator)."""
    with _circuits_lock:
        _circuits.clear()


def _execute(point: SweepPoint, baseline: Optional[RoutingResult]) -> RunRecord:
    """Compute one point in this process (the only code path that routes).

    Every execution is traced — step spans are cheap relative to routing —
    so all records carry a :class:`~repro.obs.profile.RunProfile` and
    cached replays keep their telemetry.  Tracing is passive (see
    :mod:`repro.obs`): routed metrics are bit-identical with or without it.
    The fresh record also keeps the tracer's root spans and, for a
    fault-plan point, the plan's injection log; a contained SPMD crash
    carries that log out on its :class:`~repro.mpi.runtime.RankError`.
    """
    from repro.faults import NULL_FAULT_PLAN, make_plan
    from repro.mpi.runtime import RankError
    from repro.obs.profile import profile_from_tracer
    from repro.obs.tracer import Tracer

    circuit = build_circuit(point.circuit, point.scale, point.circuit_seed)
    machine = MACHINES[point.machine]
    tracer = Tracer()
    faults = NULL_FAULT_PLAN
    t0 = time.perf_counter()
    if point.algorithm == "serial":
        run_result = serial_baseline(
            circuit,
            point.config,
            machine=machine,
            memory_stats=_full_scale_stats(point.circuit),
            tracer=tracer,
        )
        timing = None
    else:
        if point.fault_plan:
            faults = make_plan(point.fault_plan, point.nprocs, point.fault_seed)
        try:
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
        except RankError as exc:
            exc.fired = faults.fired()
            raise
        run_result, timing = run.result, run.timing
    host_seconds = time.perf_counter() - t0
    # stamp the transport only when it is a real-parallelism one: serial
    # points have no transport, and the in-process default stays implicit
    # so profiles recorded before the transport layer stay byte-stable
    transport = point.config.transport
    if point.algorithm == "serial" or transport == "inprocess":
        transport = ""
    profile = profile_from_tracer(
        tracer,
        circuit=point.circuit,
        algorithm=point.algorithm,
        nprocs=point.nprocs,
        scale=point.scale,
        seed=point.circuit_seed,
        machine=machine,
        transport=transport,
        model_time=run_result.model_time,
    )
    record = record_from_results(
        point,
        run_result,
        timing=timing,
        baseline=baseline,
        profile=profile.to_dict(),
        key=point.key(),
        host_seconds=host_seconds,
    )
    record.spans = tracer.roots
    record.fired = faults.fired()
    return record


def _observe_record(record: RunRecord) -> RunRecord:
    """Parent-side latency bookkeeping for a freshly computed point.

    Folds the point's host wall time into the process-wide
    ``engine.point_host_ms`` histogram, which `repro profile` and
    `repro metrics export` surface as p50/p95/p99 — cache replays are
    never passed here (their ``host_seconds`` is the replay cost, not a
    route).
    """
    from repro.obs.metrics import REGISTRY

    REGISTRY.histogram("engine.point_host_ms").observe(record.host_seconds * 1e3)
    return record


#: one unit of work: a point and its serial baseline's result dict
#: (``None`` for serial points)
Task = Tuple[SweepPoint, Optional[Dict[str, Any]]]


def _safe_worker(task: Task) -> Attempt:
    """Process-pool entry point: compute one point, never raise.

    Exceptions become values, so one failing point never tears down the
    batch and the parent decides per point whether to retry or give up.
    The record (spans included) or the failure pickles back to the parent.
    """
    point, baseline_dict = task
    try:
        baseline = result_from_dict(baseline_dict) if baseline_dict is not None else None
        return _execute(point, baseline)
    except Exception as exc:  # contained: reported per point
        return PointFailure(
            point, type(exc).__name__, str(exc), 1,
            report=getattr(exc, "report", None),
            fired=getattr(exc, "fired", {}),
        )


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: an explicit positive value, else host cores."""
    if jobs is not None and jobs > 0:
        return jobs
    return os.cpu_count() or 1


def _map_tasks(tasks: Sequence[Any], jobs: int, worker: Any = _safe_worker) -> List[Any]:
    """Run tasks across the pool (or inline), preserving order.

    Falls back to in-process execution only for *pool* failures — the
    pool cannot be created (sandboxed host, fork limits) or dies mid-map
    (``BrokenProcessPool``, ``OSError``).  The worker is a pure function,
    so rerunning inline yields the identical records.  A point that
    raises is not a pool failure: :func:`_safe_worker` returns the error
    as a value, and the parent retries that point alone.
    """
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


@dataclass(slots=True)
class PointFailure:
    """One sweep point that still failed after every allowed retry.

    A contained SPMD crash also keeps the run's
    :class:`~repro.faults.report.RunFailure` post-mortem and the fault
    plan's injection log (``fired``) of its last attempt.
    """

    point: SweepPoint
    error_type: str
    message: str
    attempts: int
    report: Optional[RunFailure] = None
    fired: Dict[str, List[str]] = field(default_factory=dict)

    def describe(self) -> str:
        return (
            f"{self.point.describe()}: {self.error_type}: {self.message} "
            f"(after {self.attempts} attempt{'s' if self.attempts != 1 else ''})"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe ledger entry (the report is left to the caller)."""
        return {
            "point": self.point.describe(),
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
        }


#: one attempt's outcome: the fresh record, or the failure it raised
Attempt = Union[RunRecord, PointFailure]


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


def _gate(point: SweepPoint, attempt: int, faults: Any) -> Optional[Attempt]:
    """The parent-side fault gate before one attempt at one point.

    ``faults.on_point`` runs in the parent (process-pool workers never
    see the plan object), so injected point failures are deterministic
    regardless of how the work is scheduled.
    """
    from repro.faults.plan import InjectedFault

    try:
        faults.on_point(point.describe(), attempt)
    except InjectedFault as exc:
        return PointFailure(point, "InjectedFault", str(exc), attempt)
    return None


def _run_tasks(
    tasks: List[Task], njobs: int, faults: Any, max_retries: int, backoff_s: float,
) -> Tuple[List[Attempt], int]:
    """Drive each task to a fresh record or a :class:`PointFailure`.

    Three steps: the fault gate for every first attempt; the first
    attempts that passed it fan out through :func:`_map_tasks`; then
    each failed point retries inline up to ``max_retries`` more times,
    sleeping :func:`retry_backoff_s` before each retry.  Returns the
    per-task outcomes in order and the number of retries spent.
    """
    from repro.obs.metrics import REGISTRY

    firsts = [_gate(point, 1, faults) for point, _ in tasks]
    pooled = [j for j, out in enumerate(firsts) if out is None]
    for j, out in zip(pooled, _map_tasks([tasks[j] for j in pooled], njobs)):
        firsts[j] = out
    results: List[Attempt] = []
    retries = 0
    for task, out in zip(tasks, firsts):
        point = task[0]
        attempt = 1
        while isinstance(out, PointFailure) and attempt <= max_retries:
            attempt += 1
            retries += 1
            REGISTRY.counter("engine.retries").inc()
            time.sleep(retry_backoff_s(backoff_s, attempt, jitter_key=point.key()))
            out = _gate(point, attempt, faults) or _safe_worker(task)
        out.attempts = attempt
        if isinstance(out, PointFailure):
            log.info("point lost: %s", out.describe())
        results.append(out)
    return results, retries


def _set_measured_serial(record: RunRecord, serial_s: float) -> None:
    """Set ``record``'s timing ``measured_serial_s``.

    Only for a baseline routed in the same sweep call as the parallel
    point: a cached baseline's host seconds belong to another window, so
    it leaves the measured speedup unset.  The timing codec keeps the
    field only for real-parallelism transports.
    """
    timing = record.timing_report()
    timing.measured_serial_s = serial_s
    record.timing = timing_to_dict(timing)


def run_sweep_salvage(
    points: Sequence[SweepPoint],
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
    faults: Optional[Any] = None,
    max_retries: int = 2,
    backoff_s: float = 0.05,
) -> SweepOutcome:
    """Execute a batch of points, containing per-point failures.

    Cache hits are replayed without computing; each distinct serial
    baseline is computed once and shared by every parallel point that
    scales against it; everything else fans out across ``jobs`` worker
    processes (default: :func:`resolve_jobs`).  A failed point is retried
    up to ``max_retries`` more times (exponential backoff starting at
    ``backoff_s`` host-seconds, capped and spread with deterministic
    per-point jitter — see :func:`retry_backoff_s`) and everything else
    is salvaged: the returned :class:`SweepOutcome` carries all surviving
    records in input order plus a :class:`PointFailure` ledger, and
    ``outcome.exit_code`` is :data:`DEGRADED_EXIT` when anything was
    lost.  A lost baseline fails every point that scales against it.

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
    records: Dict[str, RunRecord] = {}
    lost: Dict[str, PointFailure] = {}
    retries = 0

    def lookup(key: str) -> None:
        payload = cache.get(key) if cache is not None else None
        if payload is not None:
            records[key] = RunRecord.from_dict(payload, cached=True)

    def settle(keyed: List[Tuple[str, Task]]) -> None:
        nonlocal retries
        if not keyed:  # an all-hit sweep, the service's common case
            return
        outs, spent = _run_tasks(
            [task for _, task in keyed], njobs, faults, max_retries, backoff_s
        )
        retries += spent
        for (key, _), out in zip(keyed, outs):
            if isinstance(out, PointFailure):
                lost[key] = out
                continue
            # a parallel point whose baseline this call routed (phase 1)
            base = records.get(base_key.get(key, ""))
            if base is not None and not base.cached and out.timing is not None:
                _set_measured_serial(out, base.host_seconds)
            records[key] = _observe_record(out)
            if cache is None:
                continue
            try:
                cache.put(key, out.to_dict())
            except OSError as exc:
                REGISTRY.counter("cache.put_errors").inc()
                log.warning("cache write failed for %s (%s); continuing", key, exc)

    looked_up = set(keys)
    for key in dict.fromkeys(keys):
        lookup(key)
    todo = {k: p for k, p in zip(keys, points) if k not in records}

    # -- phase 1: each distinct serial baseline the misses need ----------
    base_key: Dict[str, str] = {}
    base_todo: Dict[str, SweepPoint] = {}
    for k, p in todo.items():
        bp = p if p.algorithm == "serial" else p.baseline_point()
        bk = k if bp is p else bp.key()
        base_key[k] = bk
        if bk not in looked_up:
            looked_up.add(bk)
            lookup(bk)
        if bk not in records:
            base_todo.setdefault(bk, bp)
    settle([(bk, (bp, None)) for bk, bp in base_todo.items()])

    # -- phase 2: the parallel points, against their shared baselines ----
    settle([
        (k, (p, records[base_key[k]].result))
        for k, p in todo.items()
        if p.algorithm != "serial" and base_key[k] in records
    ])

    failures: List[PointFailure] = []
    for k, p in zip(keys, points):
        if k in records:
            continue
        if p.algorithm != "serial" and k in lost:
            failures.append(lost[k])
            continue
        base = lost[base_key[k]]
        failures.append(PointFailure(
            point=p, error_type="BaselineFailure",
            message=f"serial baseline failed: {base.error_type}: {base.message}",
            attempts=base.attempts,
        ))
    if failures:
        REGISTRY.counter("engine.failed_points").inc(len(failures))
        REGISTRY.counter("engine.degraded_sweeps").inc()
    return SweepOutcome(
        records=[records[k] for k in keys if k in records],
        failures=failures,
        retries=retries,
    )
