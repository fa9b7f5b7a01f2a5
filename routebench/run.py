#!/usr/bin/env python3
"""Benchmark of the parallel TWGR router, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 routebench/run.py --workload serial_full --seed 1 --seconds 22 --trace 0

``--trace 0`` prints every ``end_to_end`` metric of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with the layer probes of
``layers.py`` and prints every ``per_layer`` metric.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it stamps the run (backend, transport, core count, Python and
numpy versions, sample counts).  Traced runs also write their spans to
``.routebench_out/``.  See NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import betainc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".routebench_out"
#: names, units, directions and bounds of every metric
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3

_STEPS = ("step1_steiner", "step2_coarse", "step3_feedthrough",
          "step4_connect", "step5_switch")
_KINDS = ("setup", "steiner", "coarse", "feeds", "assign", "connect",
          "switch", "metrics")

#: deterministic counts that must repeat exactly across runs of one seed
DETERMINISTIC = (
    "tracks_total", "scaled_tracks_mean", "modeled_speedup_mean",
    *(f"perfmodel.work_units.{k}" for k in _KINDS), "perfmodel.rank_idle_frac",
    "steiner.build_net_tree_calls", "grid.coarse_candidates",
    "grid.switch_candidates", "mpi.messages", "mpi.bytes", "exec.fresh_routes",
)


def quantile(values: Sequence[float], q: float) -> float:
    """Harrell–Davis estimate of the ``q``-quantile (0.0 when empty).

    A weighted mean of all order statistics, with Beta weights centred on
    rank ``q * n``.  A workload's distinct operations form latency
    clusters, and a plain order statistic jumps from one cluster to the
    next when a cluster boundary sits near the quantile.  That happens
    whenever the seed's circuits shift a cluster by a few percent.  This
    estimate moves smoothly instead.
    """
    if not values:
        return 0.0
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    edges = betainc((n + 1) * q, (n + 1) * (1.0 - q), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def p50(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def p90(values: Sequence[float]) -> float:
    return quantile(values, 0.9)


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def peak_rss_mb() -> Tuple[float, float]:
    """(this process, largest reaped child) peak resident set, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, child


def quality_metrics(plan: Any) -> Dict[str, float]:
    """The deterministic end-to-end metrics, from the oracle's references.

    Every timed operation is checked to reproduce its reference exactly,
    so these are also the values the timed operations produced.  A serial
    route is its own baseline: scaled tracks and modeled speedup are 1.
    """
    refs = [op.ref for op in plan.ops]
    par = [r for r in refs if r.parallel]
    return {
        "tracks_total": float(sum(r.tracks for r in refs)),
        "scaled_tracks_mean": mean([r.scaled_tracks for r in par]) if par else 1.0,
        "modeled_speedup_mean": mean([r.speedup for r in par]) if par else 1.0,
    }


def end_to_end(plan: Any, out: Any, setups: List[float]) -> Dict[str, float]:
    lat = out.latencies_ms
    own, child = peak_rss_mb()
    return {
        "setup_s": p50(setups),
        "latency_p50_ms": p50(lat),
        "latency_p90_ms": p90(lat),
        "throughput_ops_per_s": len(lat) / out.wall_s if out.wall_s else 0.0,
        "success_frac": (out.attempted - out.failed) / out.attempted if out.attempted else 0.0,
        "peak_rss_mb": own + (child if plan.env["transport"] == "multiprocess" else 0.0),
        **quality_metrics(plan),
    }


def per_layer(plan: Any, out: Any, rec: Any, setup_generates: int) -> Dict[str, float]:
    s = rec.samples
    refs = [op.ref for op in plan.ops]
    traced_routes = len(out.traced_latencies_ms)
    rounds = max(out.traced_rounds, 1)
    m: Dict[str, float] = {}
    for step in _STEPS:
        m[f"twgr.{step}_ms"] = p50(s[f"twgr.{step}"])
    m["twgr.route_other_ms"] = p50(s["twgr.route_other_ms"])
    calls = s["steiner.build_net_tree_us"]
    m["steiner.build_net_tree_calls"] = len(calls) / traced_routes if traced_routes else 0.0
    m["steiner.build_net_tree_us"] = p50(calls)
    for kind in ("coarse", "switch"):
        m[f"grid.{kind}_dirty_frac"] = mean(s[f"grid.{kind}_dirty_frac"])
        m[f"grid.{kind}_candidates"] = mean(s[f"grid.{kind}_candidates"])
    for kind in _KINDS:
        m[f"perfmodel.work_units.{kind}"] = float(
            sum(r.work_units.get(kind, 0.0) for r in refs))
    m["perfmodel.rank_idle_frac"] = mean([r.idle_frac for r in refs if r.parallel])
    for alg in ("rowwise", "netwise", "hybrid"):
        m[f"parallel.{alg}_ms"] = p50(s[f"parallel.{alg}_ms"])
    for i in range(1, 6):
        m[f"parallel.step{i}_rank_max_ms"] = p50(s[f"parallel.step{i}_rank_max_ms"])
    m["parallel.rank_imbalance"] = p50(s["parallel.rank_imbalance"])
    m["mpi.messages"] = mean(s["mpi.messages"])
    m["mpi.bytes"] = mean(s["mpi.bytes"])
    m["mpi.rank_wall_max_ms"] = p50(s["mpi.rank_wall_max_ms"])
    m["mpi.startup_ms"] = p50(s["mpi.startup_ms"])
    m["mpi.child_rss_mb"] = peak_rss_mb()[1] if plan.env["transport"] == "multiprocess" else 0.0
    generates = s["circuits.generate"]
    m["circuits.generate_ms"] = p50(generates)
    in_rounds = len(generates) - setup_generates
    m["circuits.generate_calls"] = float(in_rounds / rounds if in_rounds else setup_generates)
    m["exec.execute_hit_ms"] = p50(s["exec.execute_hit_ms"])
    m["exec.execute_miss_ms"] = p50(s["exec.execute_miss_ms"])
    m["exec.route_host_ms"] = p50(s["exec.route_host_ms"])
    m["exec.overhead_ms"] = p50(s["exec.overhead_ms"])
    m["exec.cache_get_ms"] = p50(s["exec.cache_get"])
    m["exec.cache_put_ms"] = p50(s["exec.cache_put"])
    m["exec.cache_hit_ratio"] = mean(s["exec.cache_hit"])
    m["exec.record_encode_ms"] = p50(s["exec.record_encode"])
    m["exec.record_bytes"] = p50(s["exec.record_bytes"])
    m["exec.fresh_routes"] = sum(s["exec.fresh_routes"]) / rounds
    m["exec.retries"] = float(sum(s["exec.retries"]))
    m["service.parse_ms"] = p50(s["service.parse"])
    m["service.submit_ms_p50"] = p50(s["service.submit"])
    m["service.submit_ms_p90"] = p90(s["service.submit"])
    m["service.http_ms"] = (mean(s["service.request"]) - mean(s["service.submit"])
                            if s["service.submit"] else 0.0)
    m.update(_queue_wait(rec))
    requests = sum(s["registry.service.requests"])
    m["service.coalesced_frac"] = (sum(s["registry.service.coalesced"]) / requests
                                   if requests else 0.0)
    m["service.cached_frac"] = mean(s["service.cached"])
    untraced = p50(out.latencies_ms)
    m["obs.trace_overhead_frac"] = (p50(out.traced_latencies_ms) / untraced - 1.0
                                    if untraced else 0.0)
    mismatches = len(out.mismatches)
    distinct = plan.extra.get("distinct")
    if distinct is not None and m["exec.fresh_routes"] != distinct:
        print(f"routebench: {m['exec.fresh_routes']} fresh routes per round, "
              f"expected one per distinct key ({distinct})", file=sys.stderr)
        mismatches += 1
    m["invariants.mismatches"] = float(mismatches)
    return m


def _queue_wait(rec: Any) -> Dict[str, float]:
    """Queue-wait percentiles from the REGISTRY histogram deltas."""
    from repro.obs.metrics import quantile_from_buckets

    count = sum(rec.samples["registry.queue_wait.count"])
    rounds = rec.samples["registry.queue_wait.buckets"]
    buckets = [sum(col) for col in zip(*rounds)] if rounds else []
    return {
        f"service.queue_wait_ms_p{int(q * 100)}": (
            quantile_from_buckets(count, buckets, q) if count else 0.0)
        for q in (0.5, 0.9)
    }


def check_drift(workload: str, seed: int, counts: Dict[str, float]) -> List[str]:
    """Compare deterministic counts with an earlier run of the same seed.

    The file lives in the checkout, so only runs of the same code meet
    it.  Returns the names whose values changed, then records ``counts``.
    """
    path = OUT / f"counts-{workload}-seed{seed}.json"
    try:
        before = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        before = {}
    drift = sorted(k for k in counts if k in before and before[k] != counts[k])
    for name in drift:
        print(f"routebench: deterministic count {name} changed between runs: "
              f"{before[name]!r} -> {counts[name]!r}", file=sys.stderr)
    OUT.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**before, **counts}, sort_keys=True), encoding="utf-8")
    return drift


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(workload: Any, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One benchmark run; returns the result object (see module doc)."""
    from layers import Probes, Recorder

    rec = Recorder() if trace else None
    setups: List[float] = []
    plans: List[Any] = []  # the first set-up (for the oracle) and the latest
    for _ in range(1 if trace else SETUP_REPEATS):
        if len(plans) == 2:
            plans.pop().teardown()
        t0 = time.perf_counter()
        if rec is not None:
            # traced for its circuit builds only
            with Probes(rec):
                plans.append(workload.setup(seed, OUT))
        else:
            plans.append(workload.setup(seed, OUT))
        setups.append(time.perf_counter() - t0)
    first, plan = plans[0], plans[-1]
    plans.clear()
    setup_generates = len(rec.samples["circuits.generate"]) if rec is not None else 0
    if rec is not None:
        for name in [k for k in rec.samples if k != "circuits.generate"]:
            del rec.samples[name]
    try:
        workload.oracle(first)
        if plan is not first:
            plan.adopt(first)
            first.teardown()
        del first
        out = workload.run(plan, seconds, rec)
    finally:
        plan.teardown()

    if rec is None:
        metrics = end_to_end(plan, out, setups)
    else:
        metrics = per_layer(plan, out, rec, setup_generates)
    counts = {k: v for k, v in {**metrics, **quality_metrics(plan)}.items()
              if k in DETERMINISTIC}
    drift = check_drift(workload.name, seed, counts)
    if rec is not None:
        metrics["invariants.mismatches"] += len(drift)
    stamp = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "env": plan.env, "samples": len(out.latencies_ms),
        "traced_samples": len(out.traced_latencies_ms),
        "rounds": out.rounds, "traced_rounds": out.traced_rounds,
        "mismatches": out.mismatches, "drift": drift,
    }
    if rec is not None:
        rec.dump(OUT / f"trace-{workload.name}-seed{seed}.json",
                 {**stamp, "metrics": metrics})
    print("routebench: " + json.dumps(stamp, sort_keys=True))
    return {
        "correct": out.failed == 0 and not out.mismatches and not drift,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in SPEC["per_layer" if trace else "end_to_end"]},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"routebench: no router sources at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    result = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
