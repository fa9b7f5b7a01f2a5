#!/usr/bin/env python
"""Deterministic step-time regression gate.

Routes a fixed smoke spec (``primary1`` at scale 0.1, serial and hybrid
p=4), condenses each run into a :class:`~repro.obs.profile.RunProfile`,
and diffs the *modeled* per-step seconds against the committed reference
``benchmarks/PROFILE_smoke.json``.  Modeled seconds are derived from the
work counters via the machine model, so they are bit-deterministic for a
fixed spec: a diff ratio other than exactly 1.0 means a code change
altered how much work a step performs — the same property the cache's
``CODE_SALT`` invalidation rule tracks.  Exits nonzero when any step
regressed by more than the threshold (default +25%).

It also loads the committed benchmark records ``BENCH_kernels.json`` and
``BENCH_sweep.json`` (repo root) as context: the kernel means are printed
for reference and the sweep record's ``bit_identical`` flag is enforced —
a historical sweep that was not bit-identical would mean the committed
baseline itself is untrustworthy.

Finally it gates the committed perf trajectory ``BENCH_trajectory.json``
through the trend engine (:mod:`repro.analysis.trends`): records are
schema-validated fail-fast, grouped into per-backend comparable chains
(same scale/seed/rounds as the newest record), and **every adjacent
pair** in every chain is checked — route_mean_s beyond
``--route-threshold`` (default 5%) or any kernel mean beyond
``--kernel-threshold`` (default 30%, host-noise calibrated) fails with a
culprit report naming the kernel, backend, and both commits.  The newest
record of every backend must additionally carry the incremental-engine
observability stats (a ``batched_eval`` kernel mean and a per-circuit
``dirty_frac``).  This check reads committed records only — it never
times anything itself, so it cannot flake with runner speed; it fails
exactly when someone commits a measurably slower trajectory record,
even one buried behind a newer fast record.

Records stamped with a real-parallelism transport (``backend@transport``
chains, written by ``run_bench.py --transport-bench``) are *exempt* from
the hard gate: their route walls are measured host seconds, which vary
with the runner's core count and load, unlike the deterministic modeled
series gated here.  The trend engine still displays them, so a measured
slowdown is visible in ``repro trends`` without ever failing CI.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py            # gate
    PYTHONPATH=src python benchmarks/check_regression.py --update   # rebase
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:  # direct function calls, not just main()
    sys.path.insert(0, str(REPO / "src"))
DEFAULT_REFERENCE = Path(__file__).resolve().parent / "PROFILE_smoke.json"

SMOKE_FORMAT = "repro-profile-smoke-v1"
SMOKE_CIRCUIT = "primary1"
SMOKE_SCALE = 0.1
SMOKE_SEED = 1
SMOKE_MACHINE = "SparcCenter-1000"
#: label -> (algorithm, nprocs); both legs of the gate
SMOKE_RUNS = {
    "serial": ("serial", 1),
    "hybrid_p4": ("hybrid", 4),
}


def smoke_profiles() -> Dict[str, Dict]:
    """Route the smoke specs; ``label -> profile dict``."""
    from repro.exec import SweepPoint, execute_point
    from repro.twgr.config import RouterConfig

    out: Dict[str, Dict] = {}
    for label, (algorithm, nprocs) in SMOKE_RUNS.items():
        point = SweepPoint(
            circuit=SMOKE_CIRCUIT, algorithm=algorithm, nprocs=nprocs,
            scale=SMOKE_SCALE, circuit_seed=SMOKE_SEED, machine=SMOKE_MACHINE,
            config=RouterConfig(seed=SMOKE_SEED),
        )
        record = execute_point(point, compute_baseline=False)
        assert record.profile is not None
        out[label] = record.profile
    return out


def load_reference(path: Path) -> Dict[str, Dict]:
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("format") != SMOKE_FORMAT:
        raise ValueError(f"{path} is not a smoke-profile reference")
    return data["profiles"]


def check_bench_records(kernels_path: Path, sweep_path: Path) -> List[str]:
    """Sanity-check the committed benchmark records; returns problems.

    The kernel report loads through the versioned fail-fast validator
    (:func:`repro.analysis.records.load_kernels`), so a malformed record
    is reported naming the offending kernel/circuit instead of surfacing
    as a KeyError mid-gate.
    """
    from repro.analysis.records import BenchRecordError, load_kernels

    problems: List[str] = []
    try:
        kernels = load_kernels(kernels_path)
        print(f"kernel baseline ({kernels_path.name}, commit {kernels['commit'][:12]}):")
        for name in sorted(kernels["kernels"]):
            k = kernels["kernels"][name]
            print(f"  {name:<28} {1e3 * k['mean_s']:9.3f} ms")
    except (OSError, ValueError, BenchRecordError) as exc:
        problems.append(f"cannot read {kernels_path}: {exc}")
    try:
        sweep = json.loads(sweep_path.read_text(encoding="utf-8"))
        identical = sweep.get("sweep", {}).get("bit_identical")
        print(
            f"sweep baseline ({sweep_path.name}): "
            f"{sweep.get('sweep', {}).get('points', '?')} points, "
            f"bit_identical={identical}"
        )
        if identical is not True:
            problems.append(
                f"{sweep_path.name}: committed sweep was not bit-identical"
            )
    except (OSError, ValueError) as exc:
        problems.append(f"cannot read {sweep_path}: {exc}")
    return problems


#: kernel stats the newest trajectory record of each backend must carry
REQUIRED_KERNEL_STATS = ("batched_eval",)


def check_trajectory(
    path: Path,
    route_threshold: float,
    kernel_threshold: Optional[float] = None,
) -> List[str]:
    """Trend-aware gate over the committed perf-trajectory; returns problems.

    Delegates to :mod:`repro.analysis.trends`: records load through the
    versioned fail-fast validator, are grouped into per-backend chains of
    records comparable with the newest one (same scale/seed/rounds — wall
    timings at different operating points are not comparable), and every
    *adjacent pair* in every chain is checked, so a regression hidden in
    the middle of history still fails.  Route means are gated at
    ``route_threshold``, kernel means at ``kernel_threshold`` (default
    :data:`repro.analysis.trends.KERNEL_THRESHOLD`).  The newest record
    per backend must carry every :data:`REQUIRED_KERNEL_STATS` kernel
    mean and a numeric per-circuit ``dirty_frac``.  Records written
    before the backend stamp existed predate the gated stats and are
    displayed but exempt, as are measured-transport chains
    (``backend@transport``): wall-clock series are trend-reported, never
    hard-gated.
    """
    from repro.analysis.records import load_trajectory
    from repro.analysis import trends

    if kernel_threshold is None:
        kernel_threshold = trends.KERNEL_THRESHOLD
    try:
        records = load_trajectory(path)
    except FileNotFoundError:
        return [f"cannot read {path}: file not found"]
    except (OSError, ValueError) as exc:  # BenchRecordError is a ValueError
        return [f"cannot read {path}: {exc}"]
    if not records:
        return [f"{path.name}: no trajectory records committed"]
    report = trends.build_trend_report(records)
    problems, _culprits = trends.gate_trends(
        report,
        kernel_threshold=kernel_threshold,
        route_threshold=route_threshold,
        required_kernels=REQUIRED_KERNEL_STATS,
    )
    print(trends.render_text(report, problems=problems))
    return [f"{path.name}: {p}" for p in problems]


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reference", default=str(DEFAULT_REFERENCE))
    ap.add_argument(
        "--threshold", type=float, default=0.25,
        help="per-step regression threshold (fraction, default 0.25)",
    )
    ap.add_argument(
        "--update", action="store_true",
        help="rewrite the reference from the current code instead of gating",
    )
    ap.add_argument("--kernels", default=str(REPO / "BENCH_kernels.json"))
    ap.add_argument("--sweep", default=str(REPO / "BENCH_sweep.json"))
    ap.add_argument("--trajectory", default=str(REPO / "BENCH_trajectory.json"))
    ap.add_argument(
        "--route-threshold", type=float, default=0.05,
        help="route_mean_s regression threshold between adjacent committed "
        "trajectory records (fraction, default 0.05)",
    )
    ap.add_argument(
        "--kernel-threshold", type=float, default=None,
        help="per-kernel mean_s regression threshold between adjacent "
        "committed trajectory records (fraction; default "
        "repro.analysis.trends.KERNEL_THRESHOLD = 0.30, host-noise "
        "calibrated)",
    )
    ap.add_argument(
        "--skip-bench-files", action="store_true",
        help="gate on the smoke profile only (no BENCH_*.json checks)",
    )
    args = ap.parse_args(argv)

    from repro.obs.profile import RunProfile, profile_diff

    fresh = smoke_profiles()

    if args.update:
        payload = {"format": SMOKE_FORMAT, "profiles": fresh}
        Path(args.reference).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"reference rewritten: {args.reference}")
        return 0

    problems: List[str] = []
    if not args.skip_bench_files:
        problems += check_bench_records(Path(args.kernels), Path(args.sweep))
        problems += check_trajectory(
            Path(args.trajectory), args.route_threshold, args.kernel_threshold
        )

    reference = load_reference(Path(args.reference))
    for label, old_dict in reference.items():
        if label not in fresh:
            problems.append(f"reference run {label!r} missing from smoke set")
            continue
        old = RunProfile.from_dict(old_dict)
        new = RunProfile.from_dict(fresh[label])
        diff = profile_diff(old, new, threshold=args.threshold)
        print(f"\nsmoke run {label} ({old.circuit}@{old.scale:g}):")
        print(diff.render())
        if not diff.ok:
            problems.append(
                f"{label}: steps regressed beyond +{args.threshold:.0%}: "
                + ", ".join(d.step for d in diff.regressions)
            )

    if problems:
        print("\nREGRESSION CHECK FAILED:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print("\nregression check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
