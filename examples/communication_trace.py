#!/usr/bin/env python
"""Inspect the communication structure of a parallel routing run.

Traces a hybrid routing run with the span tracer and prints the per-rank
message timeline plus the bytes-sent matrix — the hybrid algorithm's two
personalized all-to-alls (terminals out, spans back) and the
boundary-channel exchanges between row-adjacent ranks are clearly
visible.

Run:  python examples/communication_trace.py [algorithm] [nprocs]
"""

import sys

from repro import RouterConfig, SPARCCENTER_1000, mcnc, route_parallel
from repro.mpi import trace
from repro.obs import Tracer


def main() -> None:
    algorithm = sys.argv[1] if len(sys.argv) > 1 else "hybrid"
    nprocs = int(sys.argv[2]) if len(sys.argv) > 2 else 4

    circuit = mcnc.generate("primary2", scale=0.1, seed=1)
    tracer = Tracer()
    run = route_parallel(
        circuit, algorithm=algorithm, nprocs=nprocs,
        machine=SPARCCENTER_1000, config=RouterConfig(seed=1),
        compute_baseline=False, obs=tracer,
    )

    print(run.result.summary())
    print(
        f"\n{trace.total_messages(tracer):,} messages, "
        f"{trace.total_bytes(tracer):,} bytes total\n"
    )
    print(trace.render_timeline(tracer, nprocs))
    print()
    print(trace.render_matrix(tracer, nprocs))

    # heaviest communication pairs
    pairs = sorted(trace.bytes_by_pair(tracer).items(), key=lambda kv: -kv[1])[:5]
    print("\nheaviest pairs:")
    for (src, dst), nbytes in pairs:
        print(f"  rank {src} -> rank {dst}: {nbytes:,} bytes")


if __name__ == "__main__":
    main()
