"""Paper Figure 4 — speedups of the row-wise pin partition algorithm.

Expected shape (paper §7.1): "the speedups obtained are quite high"
— roughly 3-and-up on 8 processors, growing with processor count on
every circuit.
"""

from repro.analysis.experiments import run_speedup_figure


def test_fig4_rowwise_speedup(benchmark, spec, cache, emit):
    rendered, series = benchmark.pedantic(
        run_speedup_figure, args=("rowwise", spec),
        kwargs={"cache": cache}, rounds=1, iterations=1
    )
    emit(rendered)

    for circuit, by_p in series.items():
        assert by_p[2] > 1.2, circuit
        assert by_p[8] > by_p[4] > by_p[2], circuit
    avg8 = sum(v[8] for v in series.values()) / len(series)
    assert avg8 > 3.0, f"rowwise average speedup @8 = {avg8:.2f}"
