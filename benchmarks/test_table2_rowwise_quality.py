"""Paper Table 2 — scaled track results of the row-wise pin partition
algorithm.

Expected shape (paper §7.1): quality degrades mildly with processor
count — about 5 % worse track counts on 8 processors on average — while
the 1-processor column is exactly 1.000.
"""

from repro.analysis.experiments import run_quality_table


def test_table2_rowwise_scaled_tracks(benchmark, spec, cache, emit):
    table, runs = benchmark.pedantic(
        run_quality_table, args=("rowwise", spec),
        kwargs={"cache": cache}, rounds=1, iterations=1
    )
    emit(table.render())

    one = table.column("1 proc")
    assert all(abs(v - 1.0) < 1e-9 for v in one)

    avg = table.rows[-1]
    avg8 = avg[-1]
    # paper: ~5% average degradation on 8 processors
    assert 1.0 <= avg8 < 1.15, f"rowwise avg scaled tracks @8 = {avg8}"
    # degradation grows with processor count
    assert avg[1] <= avg[2] + 0.02 <= avg[3] + 0.04
