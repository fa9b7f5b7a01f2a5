"""Service misses that share a circuit: one client sweeping over HTTP.

One client walks the paper's experiment space through ``/route``: for
each circuit, the serial route, then every parallel algorithm at every
processor count.  Every request names a run the cache has not seen, so
each one is routed, and consecutive requests name the same netlist.
Each round uses a fresh circuit seed, so no circuit carries over from
one round to the next.

    PYTHONPATH=src python benchmarks/service_sweep.py
    PYTHONPATH=src python benchmarks/service_sweep.py --scale 1.0 \\
        --circuits industry2,industry3,avq_small,avq_large --nprocs "" --rounds 1

The second form routes full-size circuits serially, to read the peak
memory of a long-lived service.  Prints one JSON object: requests,
miss latency p50/p90 (ms), wall seconds and peak RSS (MB).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.exec.cache import RunCache
from repro.service.client import ServiceClient
from repro.service.core import RoutingService, ServiceConfig
from repro.service.httpd import ServiceHost

ALGORITHMS = ("rowwise", "netwise", "hybrid")


def bodies(
    circuits: Sequence[str], nprocs: Sequence[int], scale: float, seed: int,
) -> Iterator[Dict[str, Any]]:
    """One round's requests: per circuit, serial first, then each
    algorithm at each processor count."""
    for name in circuits:
        yield {"circuit": name, "algorithm": "serial", "scale": scale, "seed": seed}
        for algorithm in ALGORITHMS:
            for p in nprocs:
                yield {"circuit": name, "algorithm": algorithm, "nprocs": p,
                       "scale": scale, "seed": seed}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuits", default="primary1,struct")
    parser.add_argument("--nprocs", default="2,4",
                        help="comma list; empty routes serial requests only")
    parser.add_argument("--scale", type=float, default=0.15)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    circuits = [c for c in args.circuits.split(",") if c]
    nprocs = [int(p) for p in args.nprocs.split(",") if p]

    latencies: List[float] = []
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="service-sweep-") as tmp:
        service = RoutingService(cache=RunCache(Path(tmp)), config=ServiceConfig(workers=1))
        with ServiceHost(service) as host, ServiceClient(host.host, host.port) as client:
            for r in range(args.rounds):
                for body in bodies(circuits, nprocs, args.scale, args.seed + r):
                    start = time.perf_counter()
                    status, payload = client.route(body)
                    latencies.append((time.perf_counter() - start) * 1e3)
                    if status != 200 or payload.get("cached"):
                        print(f"not a routed miss: {body} -> {status}", file=sys.stderr)
                        return 1
    wall_s = time.perf_counter() - t0
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies * 9
    print(json.dumps({
        "requests": len(latencies),
        "miss_p50_ms": round(statistics.median(latencies), 2),
        "miss_p90_ms": round(deciles[8], 2),
        "wall_s": round(wall_s, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
