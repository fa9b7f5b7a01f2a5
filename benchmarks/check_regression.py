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

This is one of the repo's two performance surfaces.  It pins
paper-model work and says nothing about host speed; host wall time is
judged by ``routebench/`` (paired parent/change runs of
``routebench/run.py``).

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
    """Route the smoke specs; ``label -> profile dict``.

    One engine sweep: the serial leg is also the hybrid leg's baseline,
    so the gate routes twice.
    """
    from repro.exec import SweepPoint, run_sweep_salvage
    from repro.twgr.config import RouterConfig

    points = [
        SweepPoint(
            circuit=SMOKE_CIRCUIT, algorithm=algorithm, nprocs=nprocs,
            scale=SMOKE_SCALE, circuit_seed=SMOKE_SEED, machine=SMOKE_MACHINE,
            config=RouterConfig(seed=SMOKE_SEED),
        )
        for algorithm, nprocs in SMOKE_RUNS.values()
    ]
    outcome = run_sweep_salvage(points, jobs=1)
    if not outcome.ok:
        raise RuntimeError("; ".join(f.describe() for f in outcome.failures))
    return {
        label: record.profile
        for label, record in zip(SMOKE_RUNS, outcome.records)
    }


def load_reference(path: Path) -> Dict[str, Dict]:
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("format") != SMOKE_FORMAT:
        raise ValueError(f"{path} is not a smoke-profile reference")
    return data["profiles"]


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
    args = ap.parse_args(argv)

    from repro.obs.profile import RunProfile, profile_diff

    fresh = smoke_profiles()

    if args.update:
        payload = {"format": SMOKE_FORMAT, "profiles": fresh}
        Path(args.reference).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"reference rewritten: {args.reference}")
        return 0

    problems: List[str] = []
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
