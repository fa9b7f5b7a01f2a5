"""Paper Figure 6 — speedups of the hybrid pin partition algorithm.

Expected shape (paper §7.3): "good speedups are obtained (average ~3 on
8 processors)" — slightly below the row-wise algorithm (the price of the
whole-net connection exchange) but clearly above the net-wise one.
"""

from repro.analysis.experiments import run_speedup_figure


def test_fig6_hybrid_speedup(benchmark, spec, cache, emit):
    rendered, series = benchmark.pedantic(
        run_speedup_figure, args=("hybrid", spec),
        kwargs={"cache": cache}, rounds=1, iterations=1
    )
    emit(rendered)

    for circuit, by_p in series.items():
        assert by_p[8] > by_p[2], circuit

    avg8 = sum(v[8] for v in series.values()) / len(series)
    assert avg8 > 2.5, f"hybrid average speedup @8 = {avg8:.2f}"

    _, rw = run_speedup_figure("rowwise", spec, cache=cache)
    rw8 = sum(v[8] for v in rw.values()) / len(rw)
    _, nw = run_speedup_figure("netwise", spec, cache=cache)
    nw8 = sum(v[8] for v in nw.values()) / len(nw)
    assert nw8 <= avg8 <= rw8 * 1.05
