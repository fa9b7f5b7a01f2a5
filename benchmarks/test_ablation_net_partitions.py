"""Ablation A1 — the four §5 net-partition heuristics.

The paper proposes center, locus, density and pin-number-weight
partitions and settles on pin-number-weight for its experiments.  This
ablation compares all four on a biomed-like circuit (which carries a
clock net): the pin-number-weight scheme must balance Steiner work best.
"""

from repro.analysis.experiments import run_net_partition_ablation


def test_ablation_net_partition_heuristics(benchmark, spec, cache, emit):
    table, runs = benchmark.pedantic(
        run_net_partition_ablation,
        args=(spec,),
        kwargs={"cache": cache, "circuit_name": "biomed", "nprocs": 8},
        rounds=1,
        iterations=1,
    )
    emit(table.render())

    rows = {r[0]: r[1:] for r in table.rows}
    steiner_imb = {k: v[1] for k, v in rows.items()}
    assert steiner_imb["pin_weight"] <= min(steiner_imb.values()) + 1e-9
    # the clock net makes locality-driven schemes imbalance Steiner work
    assert steiner_imb["pin_weight"] < steiner_imb["center"]
    # all schemes produce a routable result
    assert all(v[2] is not None and v[2] > 0.8 for v in rows.values())
