"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``circuits``
    List the built-in MCNC-like benchmark circuits.
``route``
    Route one circuit (serially or with a parallel algorithm) and print
    the metrics; optionally save a JSON record.
``compare``
    The paper's core experiment on one circuit: all three algorithms
    across processor counts.
``artifact``
    Regenerate one of the paper's tables/figures (or an ablation) at a
    chosen scale.
``trace``
    Route in parallel while recording communication, then print the
    message timeline and the bytes-sent matrix; ``--chrome``/``--jsonl``
    export the span trace, ``--flame`` renders a text flamegraph.
``profile``
    Route one circuit and print its per-step time/ops/bytes profile;
    ``--diff`` compares against a saved profile and flags regressions.
``cache``
    Inspect or clear the on-disk run cache (``stats`` reports session
    and lifetime hit rates).
``experiment``
    Run a declarative experiment spec (TOML/JSON grid of circuits x
    algorithms x nprocs x fault plans) through the
    fault-containing sweep engine; every record is stamped with its
    spec coordinates.
``trends``
    Perf-trajectory analytics over the committed benchmark records:
    per-kernel/per-circuit trend tables, ``--markdown`` for the
    EXPERIMENTS.md block, ``--json``/``--html`` reports, and ``--gate``
    for the trend-aware regression check.
``metrics``
    Export a MetricsRegistry snapshot in Prometheus text exposition
    format (``export`` routes a small point first so the registry has
    live counters and latency histograms).
``serve``
    Run the routing service: an asyncio HTTP front-end over a job queue
    that coalesces duplicate in-flight requests through the run cache
    and answers with embedded run records (``POST /route``), Prometheus
    metrics (``GET /metrics``), and queue/cache stats (``GET /stats``).

The routing commands (``route``, ``compare``, ``artifact``, ``profile``)
execute through the sweep engine (:mod:`repro.exec`): ``--jobs`` fans
independent runs out across worker processes, and ``--cache`` /
``--cache-dir`` replay previously computed runs from a
content-addressed on-disk cache instead of recomputing them.  The
cache's lifetime hit/miss/store tallies reach disk once, when the
command exits.

``--quiet`` suppresses progress/context lines (tables and results still
print); ``--verbose`` enables debug logging.
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.analysis.records import save_results
from repro.circuits import mcnc
from repro.mpi.transports import TRANSPORT_NAMES
from repro.perfmodel.machine import MACHINES, SPARCCENTER_1000
from repro.twgr.config import RouterConfig

if TYPE_CHECKING:
    from repro.exec import RunCache

log = logging.getLogger("repro")


class _StdoutHandler(logging.Handler):
    """Message-only handler that resolves ``sys.stdout`` at emit time.

    Resolving lazily (instead of capturing the stream like
    ``StreamHandler``) keeps logging correct when the surrounding process
    swaps ``sys.stdout`` — notably pytest's capture fixtures.
    """

    def emit(self, record: logging.LogRecord) -> None:
        try:
            print(self.format(record), file=sys.stdout)
        except Exception:  # pragma: no cover - mirrors StreamHandler
            self.handleError(record)


def configure_logging(quiet: bool = False, verbose: bool = False) -> None:
    """Set up CLI logging: WARNING when quiet, DEBUG when verbose.

    Progress/context lines go through the ``repro`` logger (message-only
    format) so ``--quiet`` filters them while deliverable output —
    tables, results, file paths — always prints.  Idempotent: repeated
    ``main()`` calls in one process adjust the level without stacking
    handlers.
    """
    level = logging.WARNING if quiet else (logging.DEBUG if verbose else logging.INFO)
    root = logging.getLogger()
    root.setLevel(level)
    if not any(isinstance(h, _StdoutHandler) for h in root.handlers):
        handler = _StdoutHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        root.addHandler(handler)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--circuit", default="primary2", help="benchmark name (see `circuits`)")
    parser.add_argument("--scale", type=float, default=0.1, help="size scale factor (default 0.1)")
    parser.add_argument("--seed", type=int, default=1, help="circuit + router seed")
    parser.add_argument(
        "--machine", default=SPARCCENTER_1000.name, choices=sorted(MACHINES),
        help="performance model",
    )
    parser.add_argument(
        "--transport", default="auto", choices=("auto",) + TRANSPORT_NAMES,
        help="SPMD transport (auto = REPRO_TRANSPORT env, else inprocess; "
        "bit-identical results either way, only measured times differ)",
    )


def _add_engine(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for independent runs (default: host cores, "
        "REPRO_JOBS overrides; 1 = in-process)",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="replay/store runs in the on-disk cache (.repro_cache)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (implies --cache)",
    )


@contextmanager
def _open_cache(args: argparse.Namespace) -> Iterator[Optional["RunCache"]]:
    """The RunCache requested by ``--cache``/``--cache-dir``, or None.

    The command owns the cache: its session tallies are folded into the
    lifetime sidecar once, when the command is done with it.
    """
    from repro.exec import RunCache

    if getattr(args, "cache_dir", None):
        cache = RunCache(args.cache_dir)
    elif getattr(args, "cache", False):
        cache = RunCache()
    else:
        yield None
        return
    with cache:
        yield cache


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel global routing for standard cells (IPPS'97 reproduction)",
    )
    parser.add_argument(
        "--quiet", "-q", action="store_true",
        help="suppress progress/context lines (results still print)",
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true", help="enable debug logging"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("circuits", help="list benchmark circuits")

    p_route = sub.add_parser("route", help="route one circuit")
    _add_common(p_route)
    p_route.add_argument(
        "--algorithm", default="serial",
        choices=("serial", "rowwise", "netwise", "hybrid"),
    )
    p_route.add_argument("--nprocs", type=int, default=8)
    p_route.add_argument("--json", metavar="PATH", help="save the result record")
    _add_engine(p_route)

    p_cmp = sub.add_parser("compare", help="all three algorithms on one circuit")
    _add_common(p_cmp)
    p_cmp.add_argument(
        "--procs", type=int, nargs="+", default=[1, 2, 4, 8], metavar="P"
    )
    _add_engine(p_cmp)

    p_art = sub.add_parser("artifact", help="regenerate a paper table/figure")
    p_art.add_argument(
        "name",
        choices=(
            "table1", "table2", "table3", "table4", "table5",
            "fig4", "fig5", "fig6",
            "ablation-partitions", "ablation-alpha", "ablation-sync",
        ),
    )
    p_art.add_argument("--scale", type=float, default=0.1)
    p_art.add_argument("--seed", type=int, default=1)
    _add_engine(p_art)

    p_cache = sub.add_parser("cache", help="inspect or clear the run cache")
    p_cache.add_argument("action", choices=("stats", "clear"))
    p_cache.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default .repro_cache / REPRO_CACHE_DIR)",
    )

    p_tr = sub.add_parser("trace", help="route in parallel and show the comm trace")
    _add_common(p_tr)
    p_tr.add_argument(
        "--algorithm", default="hybrid", choices=("rowwise", "netwise", "hybrid")
    )
    p_tr.add_argument("--nprocs", type=int, default=4)
    p_tr.add_argument(
        "--chrome", metavar="PATH",
        help="write the span trace in Chrome trace-event format "
        "(load in chrome://tracing or Perfetto)",
    )
    p_tr.add_argument(
        "--jsonl", metavar="PATH", help="write flattened spans + comm events as JSONL"
    )
    p_tr.add_argument(
        "--flame", action="store_true", help="render a text flamegraph of the spans"
    )

    p_prof = sub.add_parser(
        "profile", help="per-step time/ops/bytes profile of one routed circuit"
    )
    p_prof.add_argument("circuit", help="benchmark name (see `circuits`)")
    p_prof.add_argument(
        "--algorithm", default="serial",
        choices=("serial", "rowwise", "netwise", "hybrid"),
    )
    p_prof.add_argument("--nprocs", type=int, default=8)
    p_prof.add_argument("--scale", type=float, default=0.1)
    p_prof.add_argument("--seed", type=int, default=1)
    p_prof.add_argument(
        "--machine", default=SPARCCENTER_1000.name, choices=sorted(MACHINES)
    )
    p_prof.add_argument(
        "--transport", default="auto", choices=("auto",) + TRANSPORT_NAMES,
        help="SPMD transport (recorded in the profile when not the "
        "in-process default)",
    )
    p_prof.add_argument("--json", metavar="PATH", help="save the profile as JSON")
    p_prof.add_argument(
        "--diff", metavar="OLD.json",
        help="compare against a saved profile; exit 1 on step regressions",
    )
    p_prof.add_argument(
        "--threshold", type=float, default=0.25,
        help="regression threshold for --diff (fraction, default 0.25)",
    )
    _add_engine(p_prof)

    p_st = sub.add_parser(
        "stats", help="circuit statistics and post-route congestion report"
    )
    _add_common(p_st)
    p_st.add_argument("--top", type=int, default=5, help="hotspot channels to list")

    from repro.faults.named import NAMED_PLANS

    p_chaos = sub.add_parser(
        "chaos", help="route under an injected fault plan; print the containment report"
    )
    _add_common(p_chaos)
    p_chaos.add_argument(
        "--algorithm", default="hybrid", choices=("rowwise", "netwise", "hybrid")
    )
    p_chaos.add_argument("--nprocs", type=int, default=4)
    p_chaos.add_argument(
        "--plan", default="crash-step3", choices=sorted(NAMED_PLANS),
        help="named fault plan (default crash-step3)",
    )
    p_chaos.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the fault plan (same seed = bit-identical schedule)",
    )
    p_chaos.add_argument(
        "--smoke", action="store_true",
        help="run the CI containment mini-suite (crash, delay replay, salvage)",
    )
    p_chaos.add_argument(
        "--service", action="store_true",
        help="run the service-tier chaos scenario: boot the routing "
        "service under a flaky fault plan and assert degraded (never "
        "dropped) responses",
    )

    p_exp = sub.add_parser(
        "experiment", help="run a declarative experiment spec (TOML/JSON)"
    )
    p_exp.add_argument("spec", help="spec file (.toml or .json; see benchmarks/specs/)")
    p_exp.add_argument(
        "--json", metavar="PATH",
        help="write the stamped records + failure ledger as JSON",
    )
    p_exp.add_argument(
        "--max-retries", type=int, default=1,
        help="retries per failing cell before containment (default 1)",
    )
    _add_engine(p_exp)

    p_trends = sub.add_parser(
        "trends", help="perf-trajectory analytics over committed benchmark records"
    )
    p_trends.add_argument(
        "--trajectory", default="BENCH_trajectory.json", metavar="PATH",
        help="trajectory file (default BENCH_trajectory.json)",
    )
    p_trends.add_argument(
        "--kernels", default="BENCH_kernels.json", metavar="PATH",
        help="kernels report for per-call divisors (default BENCH_kernels.json)",
    )
    p_trends.add_argument(
        "--sweep", default="BENCH_sweep.json", metavar="PATH",
        help="sweep report for the speedup-vs-paper table (default BENCH_sweep.json)",
    )
    p_trends.add_argument(
        "--markdown", action="store_true",
        help="print the EXPERIMENTS.md trend block instead of text tables",
    )
    p_trends.add_argument(
        "--json", metavar="PATH", help="write the trend report as JSON"
    )
    p_trends.add_argument(
        "--html", metavar="PATH", help="write the static HTML/SVG report"
    )
    p_trends.add_argument(
        "--gate", action="store_true",
        help="apply the trend-aware regression gate; exit 1 on culprits",
    )
    p_trends.add_argument(
        "--kernel-threshold", type=float, default=None, metavar="F",
        help="per-kernel adjacent-pair threshold (default 0.30; host-noise "
        "calibrated)",
    )
    p_trends.add_argument(
        "--route-threshold", type=float, default=None, metavar="F",
        help="end-to-end route_mean_s threshold (default 0.05)",
    )

    p_met = sub.add_parser(
        "metrics", help="export MetricsRegistry snapshots (Prometheus text format)"
    )
    p_met.add_argument("action", choices=("export",))
    p_met.add_argument(
        "--snapshot", metavar="JSON",
        help="render a saved snapshot file instead of routing a live point",
    )
    p_met.add_argument(
        "--circuit", default="primary1",
        help="circuit routed to populate the live registry (default primary1)",
    )
    p_met.add_argument("--scale", type=float, default=0.1)
    p_met.add_argument("--seed", type=int, default=1)
    p_met.add_argument(
        "--prefix", default="repro",
        help="metric-name prefix (default 'repro')",
    )
    p_met.add_argument(
        "--out", metavar="PATH", help="write the exposition to a file"
    )

    p_srv = sub.add_parser(
        "serve", help="run the routing service (HTTP front-end over a job queue)"
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port", type=int, default=8732,
        help="listen port (0 = ephemeral; default 8732)",
    )
    p_srv.add_argument(
        "--workers", type=int, default=2,
        help="concurrent routing executions (default 2)",
    )
    p_srv.add_argument(
        "--max-retries", type=int, default=1,
        help="retries per failing point before a degraded response",
    )
    p_srv.add_argument(
        "--request-timeout", type=float, default=600.0, metavar="S",
        help="per-request ceiling in seconds before a 504 (default 600)",
    )
    p_srv.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="run cache directory (default .repro_cache / REPRO_CACHE_DIR)",
    )
    p_srv.add_argument(
        "--no-cache", action="store_true",
        help="serve without a run cache (every request recomputes)",
    )
    p_srv.add_argument(
        "--fault-plan", default="", choices=("",) + tuple(sorted(NAMED_PLANS)),
        help="inject a named fault plan into every execution (chaos mode)",
    )
    p_srv.add_argument("--fault-seed", type=int, default=0)
    p_srv.add_argument(
        "--no-admin", action="store_true",
        help="disable the POST /shutdown endpoint",
    )

    return parser


def cmd_circuits(_args: argparse.Namespace) -> int:
    """List the built-in benchmark circuits."""
    print(f"{'name':<12} {'rows':>5} {'cells':>7} {'nets':>7}  clock nets")
    for name in mcnc.names():
        s = mcnc.spec(name)
        clocks = ",".join(map(str, s.clock_net_degrees)) or "-"
        print(f"{name:<12} {s.rows:>5} {s.cells:>7} {s.nets:>7}  {clocks}")
    print(f"\npaper suite: {', '.join(mcnc.PAPER_SUITE)}")
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    """Route one circuit and print (optionally save) the metrics."""
    from repro.exec import SweepPoint, execute_point

    circuit = mcnc.generate(args.circuit, scale=args.scale, seed=args.seed)
    log.info("circuit: %s", circuit)
    point = SweepPoint(
        circuit=args.circuit, algorithm=args.algorithm,
        nprocs=1 if args.algorithm == "serial" else args.nprocs,
        scale=args.scale, circuit_seed=args.seed, machine=args.machine,
        config=RouterConfig(
            seed=args.seed, transport=args.transport
        ),
    )
    with _open_cache(args) as cache:
        record = execute_point(point, cache=cache)
    suffix = "  (cached)" if record.cached else ""
    if args.algorithm == "serial":
        print(record.routing_result().summary() + suffix)
        results = [record.routing_result()]
    else:
        run = record.parallel_run()
        print(f"serial  : {run.baseline.summary()}")
        print(f"parallel: {run.summary()}{suffix}")
        results = [run.baseline, run.result]
    if args.json:
        save_results(results, args.json)
        print(f"records written to {args.json}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Run the three algorithms across processor counts — one engine
    sweep sharing a single serial baseline."""
    from repro.analysis.tables import Table
    from repro.exec import SweepPoint, run_sweep

    circuit = mcnc.generate(args.circuit, scale=args.scale, seed=args.seed)
    machine = MACHINES[args.machine]
    config = RouterConfig(
        seed=args.seed, transport=args.transport
    )
    algorithms = ("rowwise", "netwise", "hybrid")

    def point(algo: str, p: int = 1) -> SweepPoint:
        return SweepPoint(
            circuit=args.circuit, algorithm=algo, nprocs=p, scale=args.scale,
            circuit_seed=args.seed, machine=args.machine, config=config,
        )

    points = [point("serial")] + [
        point(a, p) for a in algorithms for p in args.procs
    ]
    with _open_cache(args) as cache:
        records = run_sweep(points, jobs=args.jobs, cache=cache)
    base = records[0].routing_result()
    runs = {
        (rec.algorithm, rec.nprocs): rec.parallel_run() for rec in records[1:]
    }
    log.info("circuit: %s", circuit)
    base_time = (
        f"{base.model_time:.1f}s modeled" if base.model_time is not None
        else "timeout (memory gate)"
    )
    print(f"serial : {base.total_tracks} tracks, {base_time}\n")
    quality = Table(
        title=f"Scaled tracks on {circuit.name}",
        columns=["algorithm"] + [f"{p}p" for p in args.procs],
    )
    speed = Table(
        title=f"Modeled speedup on {circuit.name} ({machine.name})",
        columns=["algorithm"] + [f"{p}p" for p in args.procs],
    )
    for algo in algorithms:
        quality.add_row(algo, *[runs[algo, p].scaled_tracks for p in args.procs])
        speed.add_row(algo, *[runs[algo, p].speedup for p in args.procs])
    print(quality.render())
    print()
    print(speed.render())
    if cache is not None:
        s = cache.stats()
        print(f"\ncache: {s['hits']} hits, {s['misses']} misses ({s['root']})")
    return 0


def cmd_artifact(args: argparse.Namespace) -> int:
    """Regenerate one paper table/figure or ablation."""
    from repro.analysis import experiments as ex

    settings = ex.ExperimentSettings(scale=args.scale, seed=args.seed)
    with _open_cache(args) as cache:
        ex.set_cache(cache)
        ex.set_jobs(args.jobs)
        try:
            return _render_artifact(args, settings)
        finally:
            ex.set_cache(None)
            ex.set_jobs(1)


def _render_artifact(args: argparse.Namespace, settings) -> int:
    from repro.analysis import experiments as ex

    name = args.name
    sweep_algo = {
        "table2": "rowwise", "table3": "netwise", "table4": "hybrid",
        "fig4": "rowwise", "fig5": "netwise", "fig6": "hybrid",
    }.get(name)
    if sweep_algo is not None:
        # fan the whole sweep out (and/or replay it from the cache)
        # before the runner consumes it as pure memo lookups
        ex.prefetch(settings, algorithms=(sweep_algo,))
    if name == "table1":
        print(ex.run_circuit_characteristics(settings).render())
    elif name in ("table2", "table3", "table4"):
        algo = {"table2": "rowwise", "table3": "netwise", "table4": "hybrid"}[name]
        table, _ = ex.run_quality_table(algo, settings)
        print(table.render())
    elif name in ("fig4", "fig5", "fig6"):
        algo = {"fig4": "rowwise", "fig5": "netwise", "fig6": "hybrid"}[name]
        rendered, _ = ex.run_speedup_figure(algo, settings)
        print(rendered)
    elif name == "table5":
        table, _ = ex.run_platform_table(settings)
        print(table.render())
    elif name == "ablation-partitions":
        table, _ = ex.run_net_partition_ablation(settings)
        print(table.render())
    elif name == "ablation-alpha":
        table, _ = ex.run_alpha_ablation(settings)
        print(table.render())
    elif name == "ablation-sync":
        from dataclasses import replace

        profile = replace(
            settings, pconfig=replace(settings.pconfig, switch_sync_mode="profile")
        )
        table, _ = ex.run_sync_frequency_ablation(profile)
        print(table.render())
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the on-disk run cache."""
    from repro.exec import RunCache

    cache = RunCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached run(s) from {cache.root}")
        return 0
    s = cache.stats()
    life = s["lifetime"]
    rate = s["lifetime_hit_rate"]
    print(f"cache dir : {s['root']}")
    print(f"entries   : {s['entries']}")
    print(f"code salt : {s['salt']}")
    print(
        f"lifetime  : {life['hits']} hits, {life['misses']} misses, "
        f"{life['stores']} stores"
    )
    print(f"hit rate  : {f'{rate:.1%}' if rate is not None else 'n/a (no lookups yet)'}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Route with trace recorder + span tracer; render/export the traces."""
    from repro.mpi.trace import TraceRecorder
    from repro.obs import Tracer, render_flamegraph, write_chrome_trace, write_jsonl
    from repro.parallel.driver import route_parallel

    circuit = mcnc.generate(args.circuit, scale=args.scale, seed=args.seed)
    config = RouterConfig(
        seed=args.seed, transport=args.transport
    )
    machine = MACHINES[args.machine]
    recorder = TraceRecorder()
    tracer = Tracer()
    run = route_parallel(
        circuit, algorithm=args.algorithm, nprocs=args.nprocs,
        machine=machine, config=config, compute_baseline=False,
        trace=recorder, obs=tracer,
    )
    print(run.result.summary())
    colls = recorder.collectives_by_op()
    coll_text = ", ".join(f"{op}×{n}" for op, n in sorted(colls.items())) or "none"
    print(
        f"messages: {recorder.total_messages():,}, "
        f"bytes: {recorder.total_bytes():,}, collectives: {coll_text}\n"
    )
    print(recorder.render_timeline(args.nprocs))
    print()
    print(recorder.render_matrix(args.nprocs))
    if args.flame:
        print()
        print(render_flamegraph(tracer))
    if args.chrome:
        write_chrome_trace(args.chrome, tracer, recorder)
        print(f"chrome trace written to {args.chrome}")
    if args.jsonl:
        write_jsonl(args.jsonl, tracer, recorder)
        print(f"jsonl trace written to {args.jsonl}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Route one circuit and print (optionally diff) its step profile."""
    import json as _json

    from repro.exec import SweepPoint, execute_point
    from repro.obs import (
        REGISTRY,
        RunProfile,
        profile_diff,
        render_histograms,
        render_profile,
    )

    point = SweepPoint(
        circuit=args.circuit, algorithm=args.algorithm,
        nprocs=1 if args.algorithm == "serial" else args.nprocs,
        scale=args.scale, circuit_seed=args.seed, machine=args.machine,
        config=RouterConfig(
            seed=args.seed, transport=args.transport
        ),
    )
    with _open_cache(args) as cache:
        record = execute_point(point, cache=cache, compute_baseline=False)
    profile = record.run_profile()
    if profile is None:
        print("record carries no profile (cached under an old schema?)")
        return 1
    if cache is not None:
        profile.cache = {
            k: v for k, v in cache.stats().items()
            if k in ("hits", "misses", "stores")
        }
    log.info("%s%s", point.describe(), "  (cached)" if record.cached else "")
    print(render_profile(profile))
    histograms = render_histograms(REGISTRY.snapshot())
    if histograms:
        print()
        print(histograms)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(profile.to_dict(), fh, indent=2)
        print(f"profile written to {args.json}")
    if args.diff:
        with open(args.diff, "r", encoding="utf-8") as fh:
            old = RunProfile.from_dict(_json.load(fh))
        diff = profile_diff(old, profile, threshold=args.threshold)
        print()
        print(diff.render())
        if not diff.ok:
            return 1
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Print circuit statistics and a post-route congestion report."""
    from repro.analysis.congestion import report
    from repro.circuits.stats import (
        degree_histogram_text,
        net_statistics,
        row_statistics,
    )
    from repro.twgr.router import GlobalRouter

    circuit = mcnc.generate(args.circuit, scale=args.scale, seed=args.seed)
    print(f"circuit: {circuit}")
    print(net_statistics(circuit).summary())
    print(row_statistics(circuit).summary())
    print()
    print(degree_histogram_text(circuit))
    print()
    _, art = GlobalRouter(
        RouterConfig(seed=args.seed, transport=args.transport)
    ).route_with_artifacts(circuit)
    print(report(art.spans, circuit.num_rows + 1, top=args.top))
    return 0


def _fired_summary(plan) -> str:
    """One line per injection stream: ``rank0: 3 event(s) [first...]``."""
    fired = plan.fired()
    if not fired:
        return "injected events: none"
    lines = ["injected events:"]
    for who in sorted(fired):
        events = fired[who]
        head = ", ".join(events[:4]) + (", ..." if len(events) > 4 else "")
        lines.append(f"  {who}: {len(events)} event(s)  [{head}]")
    return "\n".join(lines)


def _chaos_spmd(args: argparse.Namespace, plan) -> int:
    """Route one circuit under ``plan``; print result or containment report."""
    from repro.exec.engine import DEGRADED_EXIT
    from repro.mpi.runtime import RankError
    from repro.parallel.driver import route_parallel

    circuit = mcnc.generate(args.circuit, scale=args.scale, seed=args.seed)
    machine = MACHINES[args.machine]
    log.info("circuit: %s", circuit)
    log.info("plan   : %s (fault seed %d)", args.plan, args.fault_seed)
    try:
        run = route_parallel(
            circuit, algorithm=args.algorithm, nprocs=args.nprocs,
            machine=machine,
            config=RouterConfig(
                seed=args.seed, transport=args.transport
            ),
            compute_baseline=False, faults=plan,
        )
    except RankError as exc:
        report = exc.report
        if report is None:
            raise
        print(report.render())
        print(_fired_summary(plan))
        return DEGRADED_EXIT
    print(f"run survived the fault plan: {run.result.summary()}")
    print(f"modeled time: {run.timing.elapsed:.3f}s")
    print(_fired_summary(plan))
    return 0


def _chaos_sweep(args: argparse.Namespace, plan) -> int:
    """Run a two-point salvage sweep under an engine-level fault plan."""
    import tempfile

    from repro.exec import RunCache, SweepPoint, run_sweep_salvage
    from repro.faults.plan import CacheIOFault

    config = RouterConfig(
        seed=args.seed, transport=args.transport
    )
    points = [
        SweepPoint(
            circuit=args.circuit, algorithm="serial", scale=args.scale,
            circuit_seed=args.seed, machine=args.machine, config=config,
        ),
        SweepPoint(
            circuit=args.circuit, algorithm=args.algorithm, nprocs=args.nprocs,
            scale=args.scale, circuit_seed=args.seed, machine=args.machine,
            config=config,
        ),
    ]
    with tempfile.TemporaryDirectory(prefix="repro_chaos_") as tmp:
        cache = None
        if any(isinstance(f, CacheIOFault) for f in plan.faults):
            cache = RunCache(tmp, faults=plan)
        outcome = run_sweep_salvage(
            points, jobs=1, cache=cache, faults=plan, backoff_s=0.01
        )
    print(f"salvage sweep: {outcome.summary()}")
    for rec in outcome.records:
        print(
            f"  ok   : {rec.circuit} {rec.algorithm} p={rec.nprocs} "
            f"(attempt(s)={rec.attempts})"
        )
    for failure in outcome.failures:
        print(f"  lost : {failure.describe()}")
    print(_fired_summary(plan))
    return outcome.exit_code


def _chaos_smoke(args: argparse.Namespace) -> int:
    """CI mini-suite: crash containment, delay replay, retry salvage."""
    from repro.exec import SweepPoint, run_sweep_salvage
    from repro.faults import FaultPlan, PointFault, make_plan
    from repro.mpi.runtime import RankError
    from repro.parallel.driver import route_parallel

    machine = MACHINES[args.machine]
    config = RouterConfig(
        seed=args.seed, transport=args.transport
    )
    circuit = mcnc.generate(args.circuit, scale=args.scale, seed=args.seed)

    def spmd(plan):
        return route_parallel(
            circuit, algorithm=args.algorithm, nprocs=args.nprocs,
            machine=machine, config=config, compute_baseline=False, faults=plan,
        )

    # 1. a mid-step crash is contained and fully attributed
    plan = make_plan("crash-step3", args.nprocs, args.fault_seed)
    try:
        spmd(plan)
    except RankError as exc:
        report = exc.report
        if report is None or not report.injected:
            print("FAIL: crash report missing or not marked injected")
            return 1
        if len(report.ranks) != args.nprocs:
            print("FAIL: containment report does not cover every rank")
            return 1
    else:
        print("FAIL: injected crash did not surface as RankError")
        return 1
    print(f"ok: crash contained (origin rank {report.failed_rank}, {report.step})")

    # 2. the same seeded delay plan replays bit-identically
    runs = []
    for _ in range(2):
        plan = make_plan("message-delay", args.nprocs, args.fault_seed)
        run = spmd(plan)
        runs.append((plan.fired(), run.result.total_tracks, run.timing.elapsed))
    if runs[0] != runs[1]:
        print("FAIL: seeded delay plan did not replay identically")
        return 1
    print(f"ok: delay plan replayed bit-identically ({runs[0][1]} tracks)")

    # 3. a transiently failing point is retried and salvaged
    plan = FaultPlan(args.fault_seed, (PointFault(match="", fail_times=1),))
    point = SweepPoint(
        circuit=args.circuit, algorithm="serial", scale=args.scale,
        circuit_seed=args.seed, machine=args.machine, config=config,
    )
    outcome = run_sweep_salvage([point], jobs=1, faults=plan, backoff_s=0.01)
    if not outcome.ok or outcome.retries < 1:
        print(f"FAIL: salvage did not retry/recover ({outcome.summary()})")
        return 1
    if outcome.records[0].attempts != 2:
        print("FAIL: salvaged record does not carry its attempt count")
        return 1
    print(f"ok: transient point retried and salvaged ({outcome.summary()})")
    return 0


def _chaos_service(args: argparse.Namespace) -> int:
    """Service-tier chaos: a faulted service degrades, it never drops.

    Boots the routing service in-process under ``--plan`` (default
    ``flaky-point`` when the chosen plan has no engine-level faults) and
    asserts the contract the load balancer relies on: every request is
    *answered* — structured 503s for injected failures, 200s once
    retries salvage — and ``/healthz`` stays live throughout.
    """
    import tempfile

    from repro.exec import RunCache
    from repro.faults import make_plan
    from repro.faults.plan import CacheIOFault, PointFault
    from repro.service import (
        RoutingService, ServiceClient, ServiceConfig, ServiceHost,
    )

    plan_name = args.plan
    probe = make_plan(plan_name, 1, args.fault_seed)
    if not any(
        isinstance(f, (CacheIOFault, PointFault))
        for f in getattr(probe, "faults", ())
    ):
        # SPMD-level plans never reach a serial service point; use the
        # plan the service tier can actually feel
        log.info("plan %r has no engine-level faults; using flaky-point", plan_name)
        plan_name = "flaky-point"

    body = {"circuit": args.circuit, "scale": args.scale, "seed": args.seed}
    with tempfile.TemporaryDirectory(prefix="repro_chaos_svc_") as tmp:
        # scenario 1: no retry budget — every injected failure must
        # surface as a structured degraded answer, not a dropped socket
        service = RoutingService(
            cache=RunCache(tmp),
            config=ServiceConfig(
                workers=1, max_retries=0,
                fault_plan=plan_name, fault_seed=args.fault_seed,
            ),
        )
        with ServiceHost(service) as host:
            with ServiceClient(host.host, host.port) as client:
                status, payload = client.route(dict(body))
                if status != 503 or payload.get("status") != "degraded":
                    print(f"FAIL: expected structured 503, got {status} {payload}")
                    return 1
                if not payload.get("failures"):
                    print("FAIL: degraded response carries no failure ledger")
                    return 1
                if client.healthz()[0] != 200:
                    print("FAIL: /healthz died with the degraded worker")
                    return 1
        ledger = payload["failures"][0]
        print(
            f"ok: injected failure answered as structured 503 "
            f"({ledger['error_type']}: {ledger['message'][:60]})"
        )

        # scenario 2: one retry — the same plan is salvaged and cached
        service = RoutingService(
            cache=RunCache(tmp),
            config=ServiceConfig(
                workers=1, max_retries=1, backoff_s=0.01,
                fault_plan=plan_name, fault_seed=args.fault_seed,
            ),
        )
        with ServiceHost(service) as host:
            with ServiceClient(host.host, host.port) as client:
                status, payload = client.route(dict(body))
                if status != 200:
                    print(f"FAIL: retry did not salvage ({status} {payload})")
                    return 1
                attempts = payload.get("attempts", 1)
                status2, payload2 = client.route(dict(body))
                if status2 != 200 or not payload2.get("cached"):
                    print("FAIL: salvaged run did not land in the cache")
                    return 1
        print(f"ok: retry salvaged the flaky point (attempts={attempts}), replayed from cache")
    print("service chaos scenario passed")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Route under a named fault plan and print the containment report.

    Exit codes: 0 when the run survived, ``DEGRADED_EXIT`` (3) when a
    failure was contained, 1 only for harness-level errors.
    """
    from repro.faults import make_plan
    from repro.faults.plan import CacheIOFault, PointFault

    if args.smoke:
        return _chaos_smoke(args)
    if args.service:
        return _chaos_service(args)
    plan = make_plan(args.plan, args.nprocs, args.fault_seed)
    engine_level = any(
        isinstance(f, (CacheIOFault, PointFault))
        for f in getattr(plan, "faults", ())
    )
    if engine_level:
        return _chaos_sweep(args, plan)
    return _chaos_spmd(args, plan)


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run a declarative experiment spec through the sweep engine.

    Exit codes mirror the salvage engine: 0 when every cell completed,
    ``DEGRADED_EXIT`` (3) when failures were contained, 1 for spec
    errors.
    """
    import json as _json

    from repro.analysis.specs import SpecError, load_spec, run_experiment

    try:
        spec = load_spec(args.spec)
    except (SpecError, FileNotFoundError) as exc:
        print(f"spec error: {exc}")
        return 1
    if spec.description:
        log.info("%s — %s", spec.name, spec.description)
    with _open_cache(args) as cache:
        outcome = run_experiment(
            spec, jobs=args.jobs, cache=cache, max_retries=args.max_retries,
        )
    print(outcome.table().render())
    print(outcome.summary())
    for failure in outcome.failures:
        log.info("contained: %s", failure.describe())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(outcome.to_json(), fh, indent=2)
        print(f"experiment report written to {args.json}")
    return outcome.exit_code


def cmd_trends(args: argparse.Namespace) -> int:
    """Render perf-trajectory analytics; optionally apply the gate."""
    import json as _json

    from repro.analysis.records import BenchRecordError
    from repro.analysis import trends

    try:
        records = trends.load_trajectory(args.trajectory)
    except FileNotFoundError:
        print(f"no trajectory file at {args.trajectory}")
        return 1
    except BenchRecordError as exc:
        print(f"trajectory error: {exc}")
        return 1
    report = trends.build_trend_report(records)

    kernels_report = None
    try:
        kernels_report = trends.load_kernels(args.kernels)
    except FileNotFoundError:
        log.info("no kernels report at %s; per-call table skipped", args.kernels)
    except BenchRecordError as exc:
        print(f"kernels error: {exc}")
        return 1

    problems = None
    if args.gate:
        kwargs = {}
        if args.kernel_threshold is not None:
            kwargs["kernel_threshold"] = args.kernel_threshold
        if args.route_threshold is not None:
            kwargs["route_threshold"] = args.route_threshold
        problems, _culprits = trends.gate_trends(report, **kwargs)

    if args.markdown:
        print(trends.render_markdown(report, records, kernels_report))
    else:
        print(trends.render_text(report, problems))
        try:
            quality = trends.load_sweep_quality(args.sweep)
        except FileNotFoundError:
            quality = {}
        if quality:
            print()
            print(trends.speedup_table(quality, records=records).render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(trends.report_to_json(report), fh, indent=2)
        print(f"trend report written to {args.json}")
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(trends.render_html(report))
        print(f"HTML report written to {args.html}")
    if problems:
        return 1
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Export a metrics snapshot in Prometheus text exposition format."""
    import json as _json

    from repro.obs import REGISTRY
    from repro.obs.metrics import render_prometheus_snapshot

    if args.snapshot:
        with open(args.snapshot, "r", encoding="utf-8") as fh:
            snap = _json.load(fh)
    else:
        # route one small point so the registry carries live cache
        # counters and the engine's host-latency histogram
        from repro.exec import SweepPoint, execute_point

        point = SweepPoint(
            circuit=args.circuit, scale=args.scale, circuit_seed=args.seed,
            config=RouterConfig(seed=args.seed),
        )
        execute_point(point, compute_baseline=False)
        log.info("routed %s to populate the registry", point.describe())
        snap = REGISTRY.snapshot()
    text = render_prometheus_snapshot(snap, prefix=args.prefix)
    if not text:
        print("# (empty registry: no instruments recorded)")
        return 0
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"metrics written to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the routing service until SIGINT or ``POST /shutdown``."""
    import asyncio

    from repro.exec import RunCache
    from repro.service import RoutingService, ServiceConfig, serve_forever

    cache = None if args.no_cache else (
        RunCache(args.cache_dir) if args.cache_dir else RunCache()
    )
    service = RoutingService(
        cache=cache,
        config=ServiceConfig(
            workers=args.workers,
            max_retries=args.max_retries,
            request_timeout_s=args.request_timeout,
            fault_plan=args.fault_plan,
            fault_seed=args.fault_seed,
        ),
    )
    if cache is not None:
        log.info("run cache: %s", cache.root)
    if args.fault_plan:
        log.info("chaos mode: fault plan %r (seed %d)", args.fault_plan, args.fault_seed)
    try:
        asyncio.run(serve_forever(
            service, host=args.host, port=args.port,
            allow_admin=not args.no_admin,
        ))
    except KeyboardInterrupt:
        log.info("interrupted; service stopped")
    return 0


COMMANDS = {
    "circuits": cmd_circuits,
    "route": cmd_route,
    "compare": cmd_compare,
    "artifact": cmd_artifact,
    "cache": cmd_cache,
    "trace": cmd_trace,
    "profile": cmd_profile,
    "stats": cmd_stats,
    "chaos": cmd_chaos,
    "experiment": cmd_experiment,
    "trends": cmd_trends,
    "metrics": cmd_metrics,
    "serve": cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(quiet=args.quiet, verbose=args.verbose)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
