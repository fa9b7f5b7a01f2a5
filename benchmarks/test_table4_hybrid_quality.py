"""Paper Table 4 — scaled track results of the hybrid pin partition
algorithm.

Expected shape (paper §7.3/§8): "the hybrid pin partitioned routing
algorithm obtains the best quality control (average quality is ~2-3%
worse on 8 processors)".
"""

from repro.analysis.experiments import run_quality_table


def test_table4_hybrid_scaled_tracks(benchmark, spec, cache, emit):
    table, runs = benchmark.pedantic(
        run_quality_table, args=("hybrid", spec),
        kwargs={"cache": cache}, rounds=1, iterations=1
    )
    emit(table.render())

    one = table.column("1 proc")
    assert all(abs(v - 1.0) < 1e-9 for v in one)

    avg8 = table.rows[-1][-1]
    assert avg8 < 1.06, f"hybrid avg scaled tracks @8 = {avg8}"

    # best quality of the three parallel algorithms
    rw, _ = run_quality_table("rowwise", spec, cache=cache)
    nw, _ = run_quality_table("netwise", spec, cache=cache)
    assert avg8 <= rw.rows[-1][-1]
    assert avg8 <= nw.rows[-1][-1]
