"""Ablation A3 — net-wise synchronization frequency.

Paper §5/§7.2: "The routing quality is controlled by frequent
synchronization but this reduces the runtime performance and is very
costly."  Sweeping the per-pass synchronization count (in the costly
*profile* mode, the one that actually controls quality) must show the
runtime falling monotonically-ish with frequency while quality holds or
improves.
"""

from repro.analysis.experiments import run_sync_frequency_ablation


def test_ablation_netwise_sync_frequency(benchmark, spec, cache, emit):
    table, runs = benchmark.pedantic(
        run_sync_frequency_ablation,
        args=(spec,),
        kwargs={"cache": cache, "circuit_name": "biomed", "nprocs": 8},
        rounds=1,
        iterations=1,
    )
    emit(table.render())

    speedups = dict(zip(table.column("syncs/pass"), table.column("speedup")))
    # more syncing = slower (the paper's runtime cost of quality control)
    assert speedups[8] < speedups[1]

    comm = dict(zip(table.column("syncs/pass"), table.column("comm share")))
    assert comm[8] > comm[1]

    quality = dict(zip(table.column("syncs/pass"), table.column("scaled tracks")))
    # frequent profile sync keeps quality near serial
    assert quality[8] < 1.10
