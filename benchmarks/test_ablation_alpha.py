"""Ablation A2 — the pin-number-weight exponent on avq.large.

Paper §5 tunes the exponent of the pin-number-weight partition on
AVQ-LARGE, whose >2000-pin clock nets dominate Steiner-tree time.  Since
tree construction is O(p^2) per net, exponents near 2 should balance the
modeled Steiner work best and yield the best speedups.
"""

from repro.analysis.experiments import run_alpha_ablation


def test_ablation_pin_weight_alpha(benchmark, spec, cache, emit):
    table, runs = benchmark.pedantic(
        run_alpha_ablation,
        args=(spec,),
        kwargs={"cache": cache, "circuit_name": "avq_large", "nprocs": 8},
        rounds=1,
        iterations=1,
    )
    emit(table.render())

    imb = dict(zip(table.column("alpha"), table.column("steiner imbalance")))
    # alpha = 2 matches the O(p^2) cost model: best or tied-best balance
    assert imb[2.0] <= min(imb.values()) + 0.05
    # far-off exponents balance worse
    assert imb[0.5] >= imb[2.0]
    speedups = dict(zip(table.column("alpha"), table.column("speedup")))
    assert all(v is not None and v > 1.0 for v in speedups.values())
