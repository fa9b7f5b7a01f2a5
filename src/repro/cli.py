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
    Regenerate one of the paper's tables/figures (or an ablation) from
    an experiment spec (default: the shipped paper grid,
    ``benchmarks/specs/paper_suite.toml``).
``profile``
    Route one circuit and print its per-step time/ops/bytes profile; a
    freshly routed parallel run adds its message totals, timeline and
    bytes-sent matrix.  ``--chrome``/``--jsonl`` export the span trace,
    ``--flame`` renders a text flamegraph, and ``--diff`` compares
    against a saved profile and flags regressions.
``cache``
    Inspect or clear the on-disk run cache (``stats`` reports its
    directory, entry count and code salt).
``experiment``
    Run a declarative experiment spec (TOML/JSON grid of circuits x
    algorithms x nprocs x fault plans) through the
    fault-containing sweep engine; ``--json`` writes every record next
    to its grid cell's coordinates.
``metrics``
    Export the MetricsRegistry in Prometheus text exposition format
    (``export`` routes a small point first so the registry has live
    counters and latency histograms).
``serve``
    Run the routing service: an asyncio HTTP front-end over a job queue
    that coalesces duplicate in-flight requests through the run cache
    and answers with embedded run records (``POST /route``), Prometheus
    metrics (``GET /metrics``), and queue/cache stats (``GET /stats``).

Every command routes through the sweep engine (:mod:`repro.exec`)
except ``stats``, whose congestion report reads the routed channel
spans that no run record carries.  ``--jobs`` fans independent runs out
across worker processes, and ``--cache`` / ``--cache-dir`` replay
previously computed runs from a content-addressed on-disk cache instead
of recomputing them.

``--quiet`` suppresses progress/context lines (tables and results still
print); ``--verbose`` enables debug logging.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.circuits import mcnc
from repro.circuits.generator import DEFAULT_SCALE, MAX_SCALE
from repro.mpi.runtime import TRANSPORTS
from repro.perfmodel.machine import MACHINES, SPARCCENTER_1000
from repro.twgr.config import RouterConfig

if TYPE_CHECKING:
    from repro.analysis.specs import ExperimentSpec
    from repro.exec import RunCache, SweepOutcome, SweepPoint

log = logging.getLogger("repro")

#: the shipped paper grid, resolved from the repository root rather
#: than the working directory
PAPER_SUITE_SPEC = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "specs" / "paper_suite.toml"
)


class _ConsoleHandler(logging.Handler):
    """Message-only handler: progress to stdout, WARNING and above to stderr.

    Diagnostics on stderr keep ``--quiet`` stdout to the deliverable
    output a script parses.  The stream is resolved at emit time
    (instead of captured like ``StreamHandler``), which keeps logging
    correct when the surrounding process swaps ``sys.stdout`` or
    ``sys.stderr`` — notably pytest's capture fixtures.
    """

    def emit(self, record: logging.LogRecord) -> None:
        stream = sys.stderr if record.levelno >= logging.WARNING else sys.stdout
        try:
            print(self.format(record), file=stream)
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
    if not any(isinstance(h, _ConsoleHandler) for h in root.handlers):
        handler = _ConsoleHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        root.addHandler(handler)


def _circuit(name: str) -> str:
    """argparse type: a benchmark name or alias (see `circuits`)."""
    try:
        mcnc.spec(name)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    return name


def _scale(text: str) -> float:
    """argparse type: a size scale factor the generator accepts."""
    try:
        scale = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < scale <= MAX_SCALE:
        raise argparse.ArgumentTypeError(
            f"scale must be in (0, {MAX_SCALE:g}], got {text}"
        )
    return scale


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--circuit", type=_circuit, default="primary2",
        help="benchmark name (see `circuits`)",
    )
    parser.add_argument(
        "--scale", type=_scale, default=DEFAULT_SCALE,
        help=f"size scale factor (default {DEFAULT_SCALE:g})",
    )
    parser.add_argument("--seed", type=int, default=1, help="circuit + router seed")
    parser.add_argument(
        "--machine", default=SPARCCENTER_1000.name, choices=sorted(MACHINES),
        help="performance model",
    )
    parser.add_argument(
        "--transport", default="inprocess", choices=TRANSPORTS,
        help="SPMD transport (bit-identical results either way, only "
        "measured times differ)",
    )


def _add_engine(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for independent runs (default: host cores; "
        "1 = in-process)",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="replay/store runs in the on-disk cache (.repro_cache)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (implies --cache)",
    )


def _sweep(
    points: List["SweepPoint"],
    jobs: Optional[int] = None,
    cache: Optional["RunCache"] = None,
) -> "SweepOutcome":
    """Run ``points`` through the sweep engine, printing each lost point."""
    from repro.exec import run_sweep_salvage

    outcome = run_sweep_salvage(points, jobs=jobs, cache=cache)
    for failure in outcome.failures:
        print(failure.describe())
    return outcome


def _open_cache(args: argparse.Namespace) -> Optional["RunCache"]:
    """The RunCache requested by ``--cache``/``--cache-dir``, or None."""
    from repro.exec import RunCache

    if getattr(args, "cache_dir", None):
        return RunCache(args.cache_dir)
    if getattr(args, "cache", False):
        return RunCache()
    return None


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
    p_route.add_argument("--json", metavar="PATH", help="save the run record")
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
    p_art.add_argument(
        "--spec", default=str(PAPER_SUITE_SPEC), metavar="PATH",
        help="experiment spec naming the grid (default: the shipped "
        "benchmarks/specs/paper_suite.toml)",
    )
    _add_engine(p_art)

    p_cache = sub.add_parser("cache", help="inspect or clear the run cache")
    p_cache.add_argument("action", choices=("stats", "clear"))
    p_cache.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default .repro_cache / REPRO_CACHE_DIR)",
    )

    p_prof = sub.add_parser(
        "profile", help="per-step time/ops/bytes profile of one routed circuit"
    )
    p_prof.add_argument(
        "circuit", type=_circuit, help="benchmark name (see `circuits`)"
    )
    p_prof.add_argument(
        "--algorithm", default="serial",
        choices=("serial", "rowwise", "netwise", "hybrid"),
    )
    p_prof.add_argument("--nprocs", type=int, default=8)
    p_prof.add_argument("--scale", type=_scale, default=DEFAULT_SCALE)
    p_prof.add_argument("--seed", type=int, default=1)
    p_prof.add_argument(
        "--machine", default=SPARCCENTER_1000.name, choices=sorted(MACHINES)
    )
    p_prof.add_argument(
        "--transport", default="inprocess", choices=TRANSPORTS,
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
    p_prof.add_argument(
        "--chrome", metavar="PATH",
        help="write the span trace in Chrome trace-event format "
        "(load in chrome://tracing or Perfetto)",
    )
    p_prof.add_argument(
        "--jsonl", metavar="PATH", help="write flattened spans + comm events as JSONL"
    )
    p_prof.add_argument(
        "--flame", action="store_true", help="render a text flamegraph of the spans"
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
        help="write the records (with their cell coordinates) + failure "
        "ledger as JSON",
    )
    p_exp.add_argument(
        "--max-retries", type=int, default=1,
        help="retries per failing cell before containment (default 1)",
    )
    _add_engine(p_exp)

    p_met = sub.add_parser(
        "metrics", help="export the MetricsRegistry (Prometheus text format)"
    )
    p_met.add_argument("action", choices=("export",))
    p_met.add_argument(
        "--circuit", type=_circuit, default="primary1",
        help="circuit routed to populate the live registry (default primary1)",
    )
    p_met.add_argument("--scale", type=_scale, default=DEFAULT_SCALE)
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
    import json as _json

    from repro.exec import SweepPoint

    point = SweepPoint(
        circuit=args.circuit, algorithm=args.algorithm,
        nprocs=1 if args.algorithm == "serial" else args.nprocs,
        scale=args.scale, circuit_seed=args.seed, machine=args.machine,
        config=RouterConfig(
            seed=args.seed, transport=args.transport
        ),
    )
    log.info("point: %s", point.describe())
    outcome = _sweep([point], args.jobs, _open_cache(args))
    if not outcome.ok:
        return outcome.exit_code
    record = outcome.records[0]
    suffix = "  (cached)" if record.cached else ""
    if args.algorithm == "serial":
        print(record.routing_result().summary() + suffix)
    else:
        run = record.parallel_run()
        print(f"serial  : {run.baseline.summary()}")
        print(f"parallel: {run.summary()}{suffix}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(record.to_dict(), fh, indent=2)
        print(f"record written to {args.json}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Run the three algorithms across processor counts — one engine
    sweep sharing a single serial baseline."""
    from repro.analysis.tables import Table
    from repro.exec import SweepPoint

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
    log.info("baseline: %s", points[0].describe())
    cache = _open_cache(args)
    outcome = _sweep(points, args.jobs, cache)
    if not outcome.ok:
        return outcome.exit_code
    records = outcome.records
    base = records[0].routing_result()
    runs = {
        (rec.algorithm, rec.nprocs): rec.parallel_run() for rec in records[1:]
    }
    base_time = (
        f"{base.model_time:.1f}s modeled" if base.model_time is not None
        else "timeout (memory gate)"
    )
    print(f"serial : {base.total_tracks} tracks, {base_time}\n")
    quality = Table(
        title=f"Scaled tracks on {base.circuit_name}",
        columns=["algorithm"] + [f"{p}p" for p in args.procs],
    )
    speed = Table(
        title=f"Modeled speedup on {base.circuit_name} ({args.machine})",
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


def _load_spec(path: str) -> Optional["ExperimentSpec"]:
    """The spec at ``path``, or None after printing why it is unusable.

    ``SpecError`` is a ``ValueError``; so are undecodable bytes and
    non-numeric ``scale``/``seed`` values.
    """
    from repro.analysis.specs import load_spec

    try:
        return load_spec(path)
    except (OSError, ValueError) as exc:
        print(f"spec error: {exc}")
        return None


def cmd_artifact(args: argparse.Namespace) -> int:
    """Regenerate one paper table/figure or ablation from a spec.

    Exit codes: 0 on success, 1 for spec errors.
    """
    from repro.analysis import experiments as ex

    spec = _load_spec(args.spec)
    if spec is None:
        return 1
    name = args.name
    if name == "table1":
        print(ex.run_circuit_characteristics(spec).render())
        return 0
    quality = {"table2": "rowwise", "table3": "netwise", "table4": "hybrid"}
    figure = {"fig4": "rowwise", "fig5": "netwise", "fig6": "hybrid"}
    tables = {
        "table5": ex.run_platform_table,
        "ablation-partitions": ex.run_net_partition_ablation,
        "ablation-alpha": ex.run_alpha_ablation,
        "ablation-sync": ex.run_sync_frequency_ablation,
    }
    kw = {"cache": _open_cache(args), "jobs": args.jobs}
    if name in quality:
        text = ex.run_quality_table(quality[name], spec, **kw)[0].render()
    elif name in figure:
        text = ex.run_speedup_figure(figure[name], spec, **kw)[0]
    else:
        text = tables[name](spec, **kw)[0].render()
    print(text)
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
    print(f"cache dir : {s['root']}")
    print(f"entries   : {s['entries']}")
    print(f"code salt : {s['salt']}")
    return 0


def _print_comm(tracer, nprocs: int) -> None:
    """Message totals, the per-rank timeline and the bytes-sent matrix."""
    from repro.mpi import trace

    colls = trace.collectives_by_op(tracer)
    coll_text = ", ".join(f"{op}×{n}" for op, n in sorted(colls.items())) or "none"
    print(
        f"messages: {trace.total_messages(tracer):,}, "
        f"bytes: {trace.total_bytes(tracer):,}, collectives: {coll_text}\n"
    )
    print(trace.render_timeline(tracer, nprocs))
    print()
    print(trace.render_matrix(tracer, nprocs))


def cmd_profile(args: argparse.Namespace) -> int:
    """Route one circuit and print (optionally diff) its step profile.

    A freshly routed record carries its run's spans, so a parallel run
    also prints its communication and ``--chrome``/``--jsonl``/``--flame``
    render the trace; a cache replay has no spans to render.
    """
    import json as _json

    from repro.exec import SweepPoint
    from repro.obs import (
        REGISTRY,
        RunProfile,
        Tracer,
        profile_diff,
        render_flamegraph,
        render_histograms,
        render_profile,
        write_chrome_trace,
        write_jsonl,
    )

    point = SweepPoint(
        circuit=args.circuit, algorithm=args.algorithm,
        nprocs=1 if args.algorithm == "serial" else args.nprocs,
        scale=args.scale, circuit_seed=args.seed, machine=args.machine,
        config=RouterConfig(
            seed=args.seed, transport=args.transport
        ),
    )
    cache = _open_cache(args)
    outcome = _sweep([point], args.jobs, cache)
    if not outcome.ok:
        return outcome.exit_code
    record = outcome.records[0]
    if (args.chrome or args.jsonl or args.flame) and not record.spans:
        print("no trace: the run was replayed from the cache, which keeps no spans")
        return 1
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
    tracer = Tracer()
    tracer.adopt(record.spans)
    if record.spans and record.algorithm != "serial":
        print()
        _print_comm(tracer, record.nprocs)
    histograms = render_histograms(REGISTRY.snapshot())
    if histograms:
        print()
        print(histograms)
    if args.flame:
        print()
        print(render_flamegraph(tracer))
    if args.chrome:
        write_chrome_trace(args.chrome, tracer)
        print(f"chrome trace written to {args.chrome}")
    if args.jsonl:
        write_jsonl(args.jsonl, tracer)
        print(f"jsonl trace written to {args.jsonl}")
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


def _fired_summary(fired: Dict[str, List[str]]) -> str:
    """One line per injection stream: ``rank0: 3 event(s) [first...]``."""
    if not fired:
        return "injected events: none"
    lines = ["injected events:"]
    for who in sorted(fired):
        events = fired[who]
        head = ", ".join(events[:4]) + (", ..." if len(events) > 4 else "")
        lines.append(f"  {who}: {len(events)} event(s)  [{head}]")
    return "\n".join(lines)


def _chaos_point(args: argparse.Namespace, fault_plan: str = "") -> "SweepPoint":
    """The parallel point ``chaos`` routes, carrying SPMD plan ``fault_plan``."""
    from repro.exec import SweepPoint

    return SweepPoint(
        circuit=args.circuit, algorithm=args.algorithm, nprocs=args.nprocs,
        scale=args.scale, circuit_seed=args.seed, machine=args.machine,
        config=RouterConfig(seed=args.seed, transport=args.transport),
        fault_plan=fault_plan, fault_seed=args.fault_seed if fault_plan else 0,
    )


def _spmd_sweep(point: "SweepPoint") -> "SweepOutcome":
    """Route a fault-plan point once: never cached, never retried."""
    from repro.exec import run_sweep_salvage

    return run_sweep_salvage([point], jobs=1, cache=None, max_retries=0)


def _chaos_sweep(args: argparse.Namespace, plan) -> int:
    """Route under ``plan`` through the sweep engine; print the outcome.

    An SPMD plan rides on the parallel point (see :func:`_spmd_sweep`),
    and the command prints the surviving run or the crash's containment
    report.  An engine-level plan (cache or point faults) drives a
    salvage sweep over the point and its serial baseline instead.
    """
    import tempfile

    from repro.exec import RunCache, run_sweep_salvage
    from repro.exec.engine import DEGRADED_EXIT
    from repro.faults.plan import CacheIOFault, PointFault

    if not any(isinstance(f, (CacheIOFault, PointFault)) for f in plan.faults):
        point = _chaos_point(args, args.plan)
        log.info("point  : %s", point.describe())
        log.info("plan   : %s (fault seed %d)", args.plan, args.fault_seed)
        outcome = _spmd_sweep(point)
        if outcome.failures:
            failure = outcome.failures[0]
            if failure.report is None:
                print(failure.describe())
                return 1
            print(failure.report.render())
            print(_fired_summary(failure.fired))
            return DEGRADED_EXIT
        record = outcome.records[0]
        print(f"run survived the fault plan: {record.routing_result().summary()}")
        print(f"modeled time: {record.timing_report().elapsed:.3f}s")
        print(_fired_summary(record.fired))
        return 0

    point = _chaos_point(args)
    with tempfile.TemporaryDirectory(prefix="repro_chaos_") as tmp:
        cache = None
        if any(isinstance(f, CacheIOFault) for f in plan.faults):
            cache = RunCache(tmp, faults=plan)
        outcome = run_sweep_salvage(
            [point.baseline_point(), point], jobs=1, cache=cache, faults=plan,
            backoff_s=0.01,
        )
    print(f"salvage sweep: {outcome.summary()}")
    for rec in outcome.records:
        print(
            f"  ok   : {rec.circuit} {rec.algorithm} p={rec.nprocs} "
            f"(attempt(s)={rec.attempts})"
        )
    for failure in outcome.failures:
        print(f"  lost : {failure.describe()}")
    print(_fired_summary(plan.fired()))
    return outcome.exit_code


def _chaos_smoke(args: argparse.Namespace) -> int:
    """CI mini-suite: crash containment, delay replay, retry salvage."""
    from repro.exec import run_sweep_salvage
    from repro.faults import FaultPlan, PointFault

    # 1. a mid-step crash is contained and fully attributed
    outcome = _spmd_sweep(_chaos_point(args, "crash-step3"))
    if outcome.ok:
        print("FAIL: injected crash did not surface as RankError")
        return 1
    report = outcome.failures[0].report
    if report is None or not report.injected:
        print("FAIL: crash report missing or not marked injected")
        return 1
    if len(report.ranks) != args.nprocs:
        print("FAIL: containment report does not cover every rank")
        return 1
    print(f"ok: crash contained (origin rank {report.failed_rank}, {report.step})")

    # 2. the same seeded delay plan replays bit-identically
    runs = []
    for _ in range(2):
        outcome = _spmd_sweep(_chaos_point(args, "message-delay"))
        if not outcome.ok:
            print(f"FAIL: delay plan run was lost ({outcome.failures[0].describe()})")
            return 1
        rec = outcome.records[0]
        runs.append((rec.fired, rec.result["total_tracks"], rec.timing_report().elapsed))
    if runs[0] != runs[1]:
        print("FAIL: seeded delay plan did not replay identically")
        return 1
    print(f"ok: delay plan replayed bit-identically ({runs[0][1]} tracks)")

    # 3. a transiently failing point is retried and salvaged
    plan = FaultPlan(args.fault_seed, (PointFault(match="", fail_times=1),))
    point = _chaos_point(args).baseline_point()
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

    if args.smoke:
        return _chaos_smoke(args)
    if args.service:
        return _chaos_service(args)
    return _chaos_sweep(args, make_plan(args.plan, args.nprocs, args.fault_seed))


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run a declarative experiment spec through the sweep engine.

    Exit codes mirror the salvage engine: 0 when every cell completed,
    ``DEGRADED_EXIT`` (3) when failures were contained, 1 for spec
    errors.
    """
    import json as _json

    from repro.analysis.specs import run_experiment

    spec = _load_spec(args.spec)
    if spec is None:
        return 1
    if spec.description:
        log.info("%s — %s", spec.name, spec.description)
    outcome = run_experiment(
        spec, jobs=args.jobs, cache=_open_cache(args),
        max_retries=args.max_retries,
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


def cmd_metrics(args: argparse.Namespace) -> int:
    """Export the live registry in Prometheus text exposition format."""
    from repro.exec import SweepPoint
    from repro.obs import REGISTRY

    # route one small point so the registry carries live cache counters
    # and the engine's host-latency histogram
    point = SweepPoint(
        circuit=args.circuit, scale=args.scale, circuit_seed=args.seed,
        config=RouterConfig(seed=args.seed),
    )
    outcome = _sweep([point])
    if not outcome.ok:
        return outcome.exit_code
    log.info("routed %s to populate the registry", point.describe())
    text = REGISTRY.render_prometheus(prefix=args.prefix)
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
    "profile": cmd_profile,
    "stats": cmd_stats,
    "chaos": cmd_chaos,
    "experiment": cmd_experiment,
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
