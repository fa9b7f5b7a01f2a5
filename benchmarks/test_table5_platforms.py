"""Paper Table 5 — the hybrid algorithm across platforms.

Reproduces the cross-platform comparison: the Sun SparcCenter 1000 SMP
versus the Intel Paragon DMP.  Expected shape: similar scaled quality on
both platforms (the algorithm is platform-independent), lower
per-processor efficiency on the Paragon (slower nodes, pricier
messages), more usable processors on the Paragon, and serial "timeout"
entries for the circuits whose full-scale footprint exceeds a 32 MB
Paragon node — their speedups are starred and assumed proportional, as
in the paper.
"""

from repro.analysis.experiments import run_platform_table

PLATFORMS = (
    ("SparcCenter-1000", (1, 4, 8)),
    ("Intel-Paragon", (1, 4, 16)),
)


def test_table5_hybrid_across_platforms(benchmark, spec, cache, emit):
    table, runs = benchmark.pedantic(
        run_platform_table,
        args=(spec,),
        kwargs={"cache": cache, "platforms": PLATFORMS},
        rounds=1,
        iterations=1,
    )
    emit(table.render())

    rows = {(r[0], r[1], r[2]): r[3:] for r in table.rows}

    # serial timeouts on the Paragon for the biggest circuits
    paragon_serial_times = rows[("Intel-Paragon", 1, "time (s)")]
    assert "timeout" in paragon_serial_times
    assert paragon_serial_times[0] != "timeout"  # primary2 fits

    # starred (assumed-proportional) speedups accompany the timeouts
    paragon_speedups = rows[("Intel-Paragon", 16, "speedup")]
    assert any(isinstance(s, str) and s.endswith("*") for s in paragon_speedups)

    # no timeout on the SMP
    assert "timeout" not in rows[("SparcCenter-1000", 1, "time (s)")]

    # scaled quality comparable across platforms (same algorithm/decisions)
    smp_q = rows[("SparcCenter-1000", 4, "scaled tracks")]
    dmp_q = rows[("Intel-Paragon", 4, "scaled tracks")]
    assert smp_q == dmp_q

    # modeled runtimes: Paragon nodes are slower per processor
    smp_t4 = rows[("SparcCenter-1000", 4, "time (s)")]
    dmp_t4 = rows[("Intel-Paragon", 4, "time (s)")]
    assert all(d > s for s, d in zip(smp_t4, dmp_t4))

    # area degradation milder than track degradation (paper §7.1 note)
    smp_area = rows[("SparcCenter-1000", 8, "scaled area")]
    smp_tracks = rows[("SparcCenter-1000", 8, "scaled tracks")]
    avg_area = sum(smp_area) / len(smp_area)
    avg_tracks = sum(smp_tracks) / len(smp_tracks)
    assert avg_area <= avg_tracks + 0.01
