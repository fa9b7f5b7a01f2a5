"""Paper Table 3 — scaled track results of the net-wise pin partition
algorithm.

Expected shape (paper §7.2): "significant degradation in quality" — the
worst of the three algorithms, caused by the blindness of each processor
during switchable-segment optimization under affordable (scalar-only)
synchronization.
"""

from repro.analysis.experiments import run_quality_table


def test_table3_netwise_scaled_tracks(benchmark, spec, cache, emit):
    table, runs = benchmark.pedantic(
        run_quality_table, args=("netwise", spec),
        kwargs={"cache": cache}, rounds=1, iterations=1
    )
    emit(table.render())

    one = table.column("1 proc")
    assert all(abs(v - 1.0) < 1e-9 for v in one)

    avg8 = table.rows[-1][-1]
    # clearly degraded (the paper reports low-teens percent average)
    assert avg8 > 1.02, f"netwise avg scaled tracks @8 = {avg8}"

    # worst of the three algorithms at 8 processors
    rw, _ = run_quality_table("rowwise", spec, cache=cache)
    hy, _ = run_quality_table("hybrid", spec, cache=cache)
    assert avg8 >= rw.rows[-1][-1]
    assert avg8 >= hy.rows[-1][-1]
