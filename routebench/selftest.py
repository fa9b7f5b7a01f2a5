#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (about half a minute).

Usage, from the root of a checkout::

    python3 routebench/selftest.py

Checks that:

* ``BENCHMARK.json`` names the workloads ``workloads.py`` defines and
  stays inside the file's limits;
* every workload, untraced and traced, emits every end-to-end and
  per-layer metric of ``BENCHMARK.json`` with its unit, routes
  correctly, and gives non-zero values for the layers it exists to
  measure;
* a corrupted expected tuple is counted as a failed operation;
* without the router sources the command fails without printing a result.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

#: metrics that must be non-zero on each workload's traced run
LAYERS = {
    "serial_full": [
        *(f"twgr.{s}_ms" for s in run._STEPS), "twgr.route_other_ms",
        "steiner.build_net_tree_calls", "steiner.build_net_tree_us",
        "grid.coarse_candidates", "grid.switch_candidates",
        "grid.coarse_dirty_frac", "circuits.generate_ms",
        "perfmodel.work_units.switch",
    ],
    "parallel_p2": [
        "parallel.rowwise_ms", "parallel.netwise_ms", "parallel.hybrid_ms",
        *(f"parallel.step{i}_rank_max_ms" for i in range(1, 6)),
        "parallel.rank_imbalance", "mpi.messages", "mpi.bytes",
        "perfmodel.rank_idle_frac", "perfmodel.work_units.setup",
    ],
    "parallel_mp_p2": [
        "parallel.hybrid_ms", "mpi.messages", "mpi.rank_wall_max_ms",
        "mpi.startup_ms", "mpi.child_rss_mb",
    ],
    "service_mix": [
        "circuits.generate_ms", "circuits.generate_calls",
        "exec.execute_hit_ms", "exec.execute_miss_ms", "exec.route_host_ms",
        "exec.cache_get_ms", "exec.cache_put_ms", "exec.cache_hit_ratio",
        "exec.record_encode_ms", "exec.record_bytes", "exec.fresh_routes",
        "service.parse_ms", "service.submit_ms_p50", "service.submit_ms_p90",
        "service.http_ms", "service.queue_wait_ms_p90", "service.cached_frac",
        "service.coalesced_frac", "perfmodel.rank_idle_frac",
    ],
}


def tiny(name: str) -> object:
    from workloads import ParallelMpP2, ParallelP2, SerialFull, ServiceMix

    return {
        "serial_full": lambda: SerialFull(scale=0.1, extra_seeds=1),
        "parallel_p2": lambda: ParallelP2(scale=0.1),
        "parallel_mp_p2": lambda: ParallelMpP2(scale=0.1),
        "service_mix": lambda: ServiceMix(scales=(0.05,), parallel_scale=0.05,
                                          seeds=1, requests=12),
    }[name]()


class Corrupted:
    """A workload whose oracle fixes one wrong expected tuple."""

    def __init__(self, inner: object) -> None:
        self.inner = inner
        self.name = inner.name

    def setup(self, seed: int, workdir: Path) -> object:
        return self.inner.setup(seed, workdir)

    def oracle(self, plan: object) -> None:
        self.inner.oracle(plan)
        ref = plan.ops[0].ref
        ref.expected = (ref.expected[0] + 1,) + ref.expected[1:]

    def run(self, plan: object, seconds: float, rec: object = None) -> object:
        return self.inner.run(plan, seconds, rec)


def check_spec() -> None:
    from workloads import WORKLOADS

    spec = run.SPEC
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(LAYERS) == list(WORKLOADS), names
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w["name"]
    for kind in ("end_to_end", "per_layer"):
        assert len({m["name"] for m in spec[kind]}) == len(spec[kind]), kind
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m
    assert len((run.ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def check_result(result: dict, kind: str, label: str) -> None:
    units = {m["name"]: m["unit"] for m in run.SPEC[kind]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["attempted"] >= 1, label
    assert set(result["metrics"]) == set(units), label
    for name, entry in result["metrics"].items():
        assert entry["unit"] == units[name], (label, name)
        assert isinstance(entry["value"], float), (label, name, entry)


def check_workloads() -> None:
    for name, layers in LAYERS.items():
        plain = run.run(tiny(name), seed=5, seconds=0.0, trace=False)
        check_result(plain, "end_to_end", name)
        assert plain["correct"] and plain["failed"] == 0, (name, plain)
        assert all(m["value"] > 0 for m in plain["metrics"].values()), (name, plain)

        traced = run.run(tiny(name), seed=5, seconds=0.0, trace=True)
        check_result(traced, "per_layer", f"{name} traced")
        assert traced["correct"], (name, traced)
        zero = [m for m in layers if not traced["metrics"][m]["value"] > 0]
        assert not zero, f"{name}: layer metrics read zero: {zero}"
        assert traced["metrics"]["invariants.mismatches"]["value"] == 0.0, name

        bad = run.run(Corrupted(tiny(name)), seed=5, seconds=0.0, trace=False)
        assert not bad["correct"] and bad["failed"] >= 1, (name, bad)
        print(f"selftest: {name} ok", flush=True)


def check_no_sources(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "serial_full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main() -> int:
    if not (run.SRC / "repro" / "__init__.py").is_file():
        print("selftest: run from a checkout root with src/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    # keep the deterministic-count records of real runs out of reach
    run.OUT = scratch
    try:
        check_spec()
        check_no_sources(scratch)
        check_workloads()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
