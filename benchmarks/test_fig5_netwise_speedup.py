"""Paper Figure 5 — speedups of the net-wise pin partition algorithm.

Expected shape (paper §7.2): "poor speedups" — clearly below both the
row-wise and hybrid algorithms at every processor count, because of the
costly synchronization across all the channels.
"""

from repro.analysis.experiments import run_speedup_figure


def test_fig5_netwise_speedup(benchmark, spec, cache, emit):
    rendered, series = benchmark.pedantic(
        run_speedup_figure, args=("netwise", spec),
        kwargs={"cache": cache}, rounds=1, iterations=1
    )
    emit(rendered)

    avg = {
        p: sum(v[p] for v in series.values()) / len(series) for p in (2, 4, 8)
    }
    _, rw = run_speedup_figure("rowwise", spec, cache=cache)
    _, hy = run_speedup_figure("hybrid", spec, cache=cache)
    for p in (2, 4, 8):
        rw_avg = sum(v[p] for v in rw.values()) / len(rw)
        hy_avg = sum(v[p] for v in hy.values()) / len(hy)
        assert avg[p] <= rw_avg, f"netwise not slowest at p={p}"
        assert avg[p] <= hy_avg * 1.02, f"netwise not slowest at p={p}"
    # still some speedup at 8 processors (paper: ~2.x)
    assert 1.5 < avg[8] < 5.0
