"""Extension experiment — scaling beyond the paper's processor counts.

The paper evaluates up to 8 (SMP) / 20 (Paragon) processors.  This
extension runs the row-wise and hybrid algorithms on a modern-cluster
machine model at up to 32 ranks on an avq.large-like circuit (86 rows),
probing where the algorithms' Amdahl terms — the replicated circuit
scans and the boundary-channel coupling — flatten the speedup curve.

Expected shape: speedup grows through 16 ranks and clearly sub-linear at
32 (3-row blocks make nearly every net a boundary net); quality keeps
degrading gently with rank count for row-wise while hybrid stays flat.
"""

import pytest

from repro.circuits import mcnc
from repro.parallel import route_parallel
from repro.parallel.driver import serial_baseline
from repro.perfmodel import GENERIC_CLUSTER
from repro.twgr import RouterConfig

PROCS = (4, 16, 32)


@pytest.fixture(scope="module")
def setup():
    circuit = mcnc.generate("avq_large", scale=0.06, seed=1)
    config = RouterConfig(seed=1)
    base = serial_baseline(circuit, config, machine=GENERIC_CLUSTER)
    return circuit, config, base


def sweep_procs(setup, algorithm):
    circuit, config, base = setup
    return {
        p: route_parallel(
            circuit, algorithm, nprocs=p, machine=GENERIC_CLUSTER,
            config=config, baseline=base,
        )
        for p in PROCS
    }


def test_extension_scalability(benchmark, setup, emit):
    runs = {}

    def sweep():
        runs["rowwise"] = sweep_procs(setup, "rowwise")
        runs["hybrid"] = sweep_procs(setup, "hybrid")
        return runs

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    from repro.analysis import Table

    table = Table(
        title="Extension: scaling to 32 ranks on a modern cluster (avq_large-like)",
        columns=["algorithm"]
        + [f"speedup@{p}" for p in PROCS]
        + [f"scaled tracks@{p}" for p in PROCS],
    )
    for algo, sweep_runs in runs.items():
        table.add_row(
            algo,
            *[sweep_runs[p].speedup for p in PROCS],
            *[sweep_runs[p].scaled_tracks for p in PROCS],
        )
    emit(table.render())

    for algo, sweep_runs in runs.items():
        sp = {p: sweep_runs[p].speedup for p in PROCS}
        # more ranks keep helping through 16...
        assert sp[16] > sp[4], algo
        # ...but efficiency collapses well below linear by 32
        assert sp[32] < 32 * 0.6, algo
        # and quality stays bounded even at 3-row blocks
        assert sweep_runs[32].scaled_tracks < 1.3, algo

    # hybrid keeps its quality advantage at extreme partitioning
    assert (
        runs["hybrid"][32].scaled_tracks <= runs["rowwise"][32].scaled_tracks + 0.02
    )
