"""The four benchmark workloads.

Each workload has three parts:

* ``setup(seed, workdir)`` builds the inputs a user of the program builds
  before routing: circuits, serial baselines, the service host.  It is
  timed (``setup_s``) and repeated.
* ``oracle(plan)`` fixes every operation's :class:`Reference`, the
  expected result tuple, from the library.  It runs once, untimed, on the
  first set-up's objects, and the timed loop uses the last set-up's, so
  nothing the oracle leaves on a circuit object can speed up the loop.
* ``run(plan, seconds, rec)`` is the closed loop.  It drives the program
  only through its public entry points: ``GlobalRouter.route``,
  ``route_parallel`` and HTTP ``POST /route`` on an in-process
  ``ServiceHost``.  An operation that raises, answers non-2xx or differs
  from its reference is a failed operation.

With a :class:`~layers.Recorder` (the traced run), the loop alternates
untraced and traced rounds.  Untraced rounds give the reference latency
for the tracing overhead.  Traced rounds run with the layer probes
installed and collect the program's own ``tracer=``/``obs=`` spans.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

from layers import Probes, Recorder

#: serial track counts at scale 1.0 with circuit seed = router seed = 1
GOLDEN_TRACKS = {"primary1": 349, "struct": 533}
CIRCUITS = ("primary1", "struct")
ALGORITHMS = ("rowwise", "netwise", "hybrid")
#: ranks per parallel route; the benchmark host has two cores
NPROCS = 2
#: schedule weight per circuit: twice as many primary1 routes as struct
#: routes put the median inside the primary1 cluster and the p90 inside
#: the struct cluster, never in the gap between them
WEIGHTS = {"primary1": 2, "struct": 1}
STEPS = ("step1_steiner", "step2_coarse", "step3_feedthrough",
         "step4_connect", "step5_switch")


def derived_seeds(seed: int, count: int, tag: str) -> List[int]:
    """``count`` distinct circuit seeds (never 1) drawn from ``seed``."""
    return random.Random(f"{tag}:{seed}").sample(range(2, 10_000), count)


def fingerprint(result: Any) -> Tuple[Any, ...]:
    """What every repetition of one operation must reproduce exactly."""
    return (
        result.total_tracks, result.area, result.num_feedthroughs,
        tuple(sorted(result.work_units.items())),
    )


@dataclass
class Reference:
    """What the oracle fixed for one operation."""

    #: ``None`` when the oracle failed a golden check: always fails
    expected: Optional[Tuple[Any, ...]]
    tracks: int
    parallel: bool = False
    scaled_tracks: float = 1.0
    speedup: float = 1.0
    idle_frac: float = 0.0
    work_units: Dict[str, float] = field(default_factory=dict)


def _reference(result: Any, run: Any = None, ok: bool = True) -> Reference:
    ref = Reference(
        expected=fingerprint(result) if ok else None,
        tracks=result.total_tracks, work_units=dict(result.work_units),
    )
    if run is not None:
        total = sum(run.timing.rank_times)
        ref.parallel = True
        ref.scaled_tracks = run.scaled_tracks
        ref.speedup = run.speedup
        ref.idle_frac = sum(run.timing.rank_idle) / total if total else 0.0
    return ref


@dataclass
class Op:
    """One distinct operation: a library call, or a service request."""

    label: str
    circuit_name: str
    circuit: Any = None
    config: Any = None
    algorithm: str = "serial"
    baseline: Any = None
    #: the HTTP request body (service operations)
    body: Optional[Dict[str, Any]] = None
    ref: Optional[Reference] = None


@dataclass
class Plan:
    """Everything set-up built for one run."""

    ops: List[Op]
    schedule: List[int]
    env: Dict[str, Any]
    teardown: Callable[[], None] = lambda: None
    extra: Dict[str, Any] = field(default_factory=dict)

    def adopt(self, other: "Plan") -> None:
        """Take the oracle's references from an identical earlier plan."""
        for mine, theirs in zip(self.ops, other.ops):
            assert mine.label == theirs.label
            mine.ref = theirs.ref


@dataclass
class Outcome:
    """Raw observations of one timed run."""

    latencies_ms: List[float] = field(default_factory=list)
    traced_latencies_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    rounds: int = 0
    traced_rounds: int = 0
    #: labels of operations whose deterministic counts changed mid-run
    mismatches: List[str] = field(default_factory=list)


def _golden_ok(name: str, seed: int, result: Any) -> bool:
    if seed != 1 or result.total_tracks == GOLDEN_TRACKS[name]:
        return True
    print(f"routebench: golden mismatch: {name} seed 1 routed "
          f"{result.total_tracks} tracks, expected {GOLDEN_TRACKS[name]}",
          file=sys.stderr)
    return False


def _schedule(ops: List[Op], seed: int) -> List[int]:
    order = [i for i, op in enumerate(ops) for _ in range(WEIGHTS[op.circuit_name])]
    random.Random(f"schedule:{seed}").shuffle(order)
    return order


def _env(transport: str) -> Dict[str, Any]:
    import os
    import platform

    import numpy

    from repro.twgr.config import RouterConfig

    return {
        "backend": RouterConfig().resolved_backend(),
        "transport": transport,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _done(start: float, periods: int, seconds: float) -> bool:
    """Whether to stop after ``periods`` whole periods since ``start``.

    Runs measure whole rounds: every operation's share of the samples is
    then fixed, and the percentiles do not depend on where the clock ran
    out.  A period is one round, or an untraced+traced pair in a traced
    run.  The loop stops at the period boundary nearest ``seconds``.
    """
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / periods >= seconds


# -- library workloads ------------------------------------------------------


class SerialFull:
    """``GlobalRouter.route`` on primary1 and struct at scale 1.0."""

    name = "serial_full"
    transport = "serial"

    def __init__(self, scale: float = 1.0, extra_seeds: int = 3) -> None:
        self.scale = scale
        self.extra_seeds = extra_seeds

    def setup(self, seed: int, workdir: Path) -> Plan:
        from repro.circuits import mcnc
        from repro.twgr.config import RouterConfig

        ops = [
            Op(label=f"{name}/s{s}", circuit_name=name,
               circuit=mcnc.generate(name, scale=self.scale, seed=s),
               config=RouterConfig(seed=s))
            for s in [1] + derived_seeds(seed, self.extra_seeds, self.name)
            for name in CIRCUITS
        ]
        return Plan(ops=ops, schedule=_schedule(ops, seed), env=_env(self.transport))

    def oracle(self, plan: Plan) -> None:
        from repro.twgr.router import GlobalRouter

        for op in plan.ops:
            ref = GlobalRouter(op.config).route(op.circuit)
            ok = self.scale != 1.0 or _golden_ok(op.circuit_name, op.config.seed, ref)
            op.ref = _reference(ref, ok=ok)

    def call(self, op: Op, traced: bool) -> Tuple[Any, Any]:
        from repro.obs.tracer import Tracer
        from repro.twgr.router import GlobalRouter

        router = GlobalRouter(op.config)
        if not traced:
            return router.route(op.circuit), None
        tracer = Tracer()
        result, art = router.route_with_artifacts(op.circuit, tracer=tracer)
        return result, (tracer, art)

    def post(self, op: Op, extra: Any, rec: Recorder, parent: int, ms: float) -> None:
        tracer, art = extra
        for route in tracer.find("route"):
            steps = 0.0
            for step in route.children:
                rec.span(f"twgr.{step.name}", step.t0, step.t1, parent=parent)
                steps += step.wall_s
            rec.sample("twgr.route_other_ms", (route.wall_s - steps) * 1e3)
        for kind, stats in (("coarse", art.grid.flip_pass_stats()),
                            ("switch", art.switch_stats)):
            clean = sum(p["clean"] for p in stats)
            dirty = sum(p["dirty"] for p in stats)
            rec.sample(f"grid.{kind}_candidates", float(clean + dirty))
            rec.sample(f"grid.{kind}_dirty_frac",
                       dirty / (clean + dirty) if clean + dirty else 0.0)

    def run(self, plan: Plan, seconds: float, rec: Optional[Recorder] = None) -> Outcome:
        return _run_library(self, plan, seconds, rec)


class ParallelP2:
    """``route_parallel`` with two ranks, cycling the three algorithms."""

    name = "parallel_p2"
    transport = "inprocess"

    def __init__(self, scale: float = 1.0, extra_seeds: int = 1) -> None:
        self.scale = scale
        self.extra_seeds = extra_seeds

    def setup(self, seed: int, workdir: Path) -> Plan:
        from repro.circuits import mcnc
        from repro.parallel.driver import serial_baseline
        from repro.perfmodel.machine import SPARCCENTER_1000
        from repro.twgr.config import RouterConfig

        ops: List[Op] = []
        for s in [1] + derived_seeds(seed, self.extra_seeds, "parallel"):
            config = RouterConfig(seed=s)
            for name in CIRCUITS:
                circuit = mcnc.generate(name, scale=self.scale, seed=s)
                base = serial_baseline(circuit, config, machine=SPARCCENTER_1000)
                ops.extend(
                    Op(label=f"{name}/s{s}/{alg}", circuit_name=name,
                       circuit=circuit, config=config, algorithm=alg, baseline=base)
                    for alg in ALGORITHMS
                )
        return Plan(ops=ops, schedule=_schedule(ops, seed), env=_env(self.transport))

    def oracle(self, plan: Plan) -> None:
        from repro.parallel.driver import route_parallel

        for op in plan.ops:
            # results are transport-independent, so the in-process run is
            # the reference for both parallel workloads
            run = route_parallel(
                op.circuit, op.algorithm, nprocs=NPROCS, config=op.config,
                baseline=op.baseline, transport="inprocess",
            )
            ok = self.scale != 1.0 or _golden_ok(op.circuit_name, op.config.seed, op.baseline)
            op.ref = _reference(run.result, run, ok=ok)

    def call(self, op: Op, traced: bool) -> Tuple[Any, Any]:
        from repro.obs.tracer import Tracer
        from repro.parallel.driver import route_parallel

        obs = Tracer() if traced else None
        run = route_parallel(
            op.circuit, op.algorithm, nprocs=NPROCS, config=op.config,
            baseline=op.baseline, obs=obs, transport=self.transport,
        )
        return run.result, (obs, run)

    def post(self, op: Op, extra: Any, rec: Recorder, parent: int, ms: float) -> None:
        obs, run = extra
        rec.sample(f"parallel.{op.algorithm}_ms", ms)
        totals = []
        step_max = {step: 0.0 for step in STEPS}
        for rank in obs.find("rank"):
            busy = 0.0
            for step in rank.children:
                if step.name not in step_max:
                    continue
                rec.span(f"twgr.{step.name}", step.t0, step.t1, parent=parent,
                         rank=rank.tags.get("rank"))
                step_max[step.name] = max(step_max[step.name], step.wall_s)
                busy += step.wall_s
            totals.append(busy)
        for step, wall in step_max.items():
            rec.sample(f"parallel.{step.split('_')[0]}_rank_max_ms", wall * 1e3)
        if totals and sum(totals) > 0:
            rec.sample("parallel.rank_imbalance", max(totals) * len(totals) / sum(totals))
        rec.sample("mpi.messages", sum(s.metrics.get("msg.sent", 0.0) for s in obs.walk()))
        rec.sample("mpi.bytes", sum(s.metrics.get("msg.bytes", 0.0) for s in obs.walk()))
        measured = run.timing.measured_rank_s
        if measured and run.timing.measured_wall_s:
            rec.sample("mpi.rank_wall_max_ms", max(measured) * 1e3)
            rec.sample("mpi.startup_ms", (run.timing.measured_wall_s - max(measured)) * 1e3)

    def run(self, plan: Plan, seconds: float, rec: Optional[Recorder] = None) -> Outcome:
        return _run_library(self, plan, seconds, rec)


class ParallelMpP2(ParallelP2):
    """The ``parallel_p2`` operations on the multiprocess transport."""

    name = "parallel_mp_p2"
    transport = "multiprocess"


def _run_library(wl: Any, plan: Plan, seconds: float, rec: Optional[Recorder]) -> Outcome:
    """Closed loop with one caller over whole schedule cycles."""
    out = Outcome()
    probes = Probes(rec) if rec is not None else None
    seen: Dict[int, Tuple[Any, ...]] = {}

    def cycle(traced: bool) -> None:
        if traced:
            probes.install()
        c0 = time.perf_counter()
        for index in plan.schedule:
            op = plan.ops[index]
            extra = None
            t0 = time.perf_counter()
            try:
                result, extra = wl.call(op, traced)
                got = fingerprint(result)
            except Exception:  # noqa: BLE001 - a failed operation, counted
                traceback.print_exc(file=sys.stderr)
                got = None
            t1 = time.perf_counter()
            ms = (t1 - t0) * 1e3
            out.attempted += 1
            if got is None or got != op.ref.expected:
                out.failed += 1
            if got is not None and seen.setdefault(index, got) != got:
                out.mismatches.append(op.label)
            if not traced:
                out.latencies_ms.append(ms)
                continue
            out.traced_latencies_ms.append(ms)
            if extra is not None:
                wl.post(op, extra, rec, rec.span("op", t0, t1, label=op.label), ms)
        if traced:
            probes.uninstall()
            out.traced_rounds += 1
        else:
            out.wall_s += time.perf_counter() - c0
            out.rounds += 1

    start, periods = time.perf_counter(), 0
    while True:
        for traced in ((False, True) if probes is not None else (False,)):
            cycle(traced)
        periods += 1
        if _done(start, periods, seconds):
            return out


# -- service workload -------------------------------------------------------


class ServiceMix:
    """Two keep-alive clients against an in-process ``ServiceHost``.

    A round sends one fixed Zipf stream over the key population on an
    empty cache, so every round repeats the same mix of fresh routes and
    cache hits.  The cache is cleared between rounds, outside the timed
    region.

    Each request of the stream goes out on both connections at once, and
    the next one follows as soon as both are answered: one caller sending
    hedged requests, closed loop, no think time.  The service coalesces
    the pair into one execution.  Two executions that overlap, by
    contrast, collide on the run cache's stats lockfile (a 5 ms retry
    sleep) or on the interpreter lock (a 5 ms switch interval).  A hit
    then takes either ~2.5 or ~8 ms depending on timing, the median falls
    between the two, and it swung by 56% across seeds when the two
    clients pulled independently from one stream.
    """

    name = "service_mix"
    transport = "inprocess"
    clients = 2
    workers = 2

    def __init__(
        self, scales: Tuple[float, ...] = (0.1, 0.2), parallel_scale: float = 0.15,
        seeds: int = 3, requests: int = 80, skew: float = 1.0,
    ) -> None:
        self.scales = scales
        self.parallel_scale = parallel_scale
        self.seeds = seeds
        self.requests = requests
        self.skew = skew

    def population(self, seed: int) -> List[Dict[str, Any]]:
        """Request bodies in popularity order (rank 1 first).

        Serial keys fill the ranks in a fixed structural order.  The four
        parallel keys sit at ranks 3, 7, 11 and 15, each on a circuit of
        its own, so no two requests share a serial baseline and every
        round routes exactly one fresh point per distinct key.
        """
        serial = [
            {"circuit": name, "algorithm": "serial", "scale": scale, "seed": s}
            for s in derived_seeds(seed, self.seeds, self.name)
            for scale in self.scales
            for name in CIRCUITS
        ]
        pseeds = derived_seeds(seed, 4, f"{self.name}:parallel")
        parallel = [
            {"circuit": name, "algorithm": alg, "nprocs": NPROCS,
             "scale": self.parallel_scale, "seed": s}
            for (alg, name), s in zip(
                [("hybrid", "primary1"), ("rowwise", "struct"),
                 ("hybrid", "struct"), ("rowwise", "primary1")], pseeds)
        ]
        bodies: List[Dict[str, Any]] = []
        while serial or parallel:
            take_parallel = (len(bodies) % 4 == 2 and parallel) or not serial
            bodies.append(parallel.pop(0) if take_parallel else serial.pop(0))
        return bodies

    def stream(self, nkeys: int) -> List[int]:
        """Popularity ranks of one round's requests (a Zipf draw).

        The stream's shape is part of the workload, not of its inputs.
        Every seed sends the same rank sequence, so the mix of fresh
        routes and hits is the same on every seed, and the seed picks only
        the circuits behind the ranks.
        """
        weights = [1.0 / (rank + 1) ** self.skew for rank in range(nkeys)]
        return random.Random(f"{self.name}:stream").choices(
            range(nkeys), weights=weights, k=self.requests
        )

    def setup(self, seed: int, workdir: Path) -> Plan:
        from repro.circuits import mcnc
        from repro.exec.cache import RunCache
        from repro.service.core import RoutingService, ServiceConfig
        from repro.service.httpd import ServiceHost
        from repro.twgr.config import RouterConfig

        # the service builds its own circuits from the request; these are
        # the oracle's, built here like every workload's circuits
        ops = [
            Op(label=f"{b['circuit']}@{b['scale']}/s{b['seed']}/{b['algorithm']}",
               circuit_name=b["circuit"], algorithm=b["algorithm"], body=b,
               circuit=mcnc.generate(b["circuit"], scale=b["scale"], seed=b["seed"]),
               config=RouterConfig(seed=b["seed"]))
            for b in self.population(seed)
        ]
        workdir.mkdir(parents=True, exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="service-cache-", dir=workdir))
        cache = RunCache(root)
        host = ServiceHost(RoutingService(
            cache=cache, config=ServiceConfig(workers=self.workers),
        )).start()

        def teardown() -> None:
            host.stop()
            shutil.rmtree(root, ignore_errors=True)

        stream = self.stream(len(ops))
        return Plan(
            ops=ops, schedule=stream, env=_env(self.transport), teardown=teardown,
            extra={"cache": cache, "host": host, "distinct": len(set(stream))},
        )

    def oracle(self, plan: Plan) -> None:
        """The library result of every key, routed in this process."""
        from repro.parallel.driver import route_parallel, serial_baseline
        from repro.perfmodel.machine import SPARCCENTER_1000

        for op in plan.ops:
            base = serial_baseline(op.circuit, op.config, machine=SPARCCENTER_1000)
            if op.algorithm == "serial":
                op.ref = _reference(base)
                continue
            run = route_parallel(
                op.circuit, op.algorithm, nprocs=NPROCS, config=op.config,
                baseline=base, transport=self.transport,
            )
            op.ref = _reference(run.result, run)

    def run(self, plan: Plan, seconds: float, rec: Optional[Recorder] = None) -> Outcome:
        return asyncio.run(self._run(plan, seconds, rec))

    async def _run(self, plan: Plan, seconds: float, rec: Optional[Recorder]) -> Outcome:
        from repro.obs.metrics import REGISTRY
        from repro.service.client import AsyncServiceClient

        host, cache = plan.extra["host"], plan.extra["cache"]
        out = Outcome()
        probes = Probes(rec) if rec is not None else None
        clients = [AsyncServiceClient(host.host, host.port, timeout_s=60.0)
                   for _ in range(self.clients)]

        async def request(client: Any, op: Op, traced: bool) -> None:
            t0 = time.perf_counter()
            try:
                status, payload = await client.route(op.body)
                ok = status == 200 and _record_fingerprint(payload) == op.ref.expected
            except Exception:  # noqa: BLE001 - a failed request, counted
                traceback.print_exc(file=sys.stderr)
                status, payload, ok = 0, {}, False
            t1 = time.perf_counter()
            out.attempted += 1
            out.failed += not ok
            if not traced:
                out.latencies_ms.append((t1 - t0) * 1e3)
                return
            out.traced_latencies_ms.append((t1 - t0) * 1e3)
            rec.span("service.request", t0, t1, key=op.label, status=status)
            rec.sample("service.cached", 1.0 if payload.get("cached") else 0.0)

        async def stream_round(traced: bool) -> None:
            cache.clear()
            if traced:
                probes.install()
                before = REGISTRY.snapshot()
            c0 = time.perf_counter()
            for index in plan.schedule:
                op = plan.ops[index]
                await asyncio.gather(*(request(c, op, traced) for c in clients))
            if traced:
                probes.uninstall()
                _registry_delta(rec, before, REGISTRY.snapshot())
                out.traced_rounds += 1
            else:
                out.wall_s += time.perf_counter() - c0
                out.rounds += 1

        try:
            start, periods = time.perf_counter(), 0
            while True:
                for traced in ((False, True) if probes is not None else (False,)):
                    await stream_round(traced)
                periods += 1
                if _done(start, periods, seconds):
                    return out
        finally:
            for client in clients:
                await client.close()


def _record_fingerprint(payload: Dict[str, Any]) -> Optional[Tuple[Any, ...]]:
    result = (payload.get("record") or {}).get("result")
    return fingerprint(SimpleNamespace(**result)) if result else None


def _registry_delta(rec: Recorder, before: Dict[str, Any], after: Dict[str, Any]) -> None:
    """Fold one traced round's REGISTRY deltas into the recorder."""
    counters_b, counters_a = before["counters"], after["counters"]
    for name in ("service.requests", "service.coalesced"):
        rec.sample(f"registry.{name}", counters_a.get(name, 0.0) - counters_b.get(name, 0.0))
    hist_a = after["histograms"].get("service.queue_wait_ms")
    if hist_a is None:
        return
    hist_b = before["histograms"].get("service.queue_wait_ms") or {
        "count": 0, "buckets": [0] * len(hist_a["buckets"])}
    rec.samples["registry.queue_wait.count"].append(hist_a["count"] - hist_b["count"])
    rec.samples["registry.queue_wait.buckets"].append(
        [a - b for a, b in zip(hist_a["buckets"], hist_b["buckets"])]
    )


WORKLOADS = {wl.name: wl for wl in (SerialFull, ParallelP2, ParallelMpP2, ServiceMix)}
