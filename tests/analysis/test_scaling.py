import math

import pytest

from repro.analysis.scaling import (
    AmdahlFit,
    compare_algorithms,
    efficiency_curve,
    fit_amdahl,
)


def amdahl(f, p):
    return 1.0 / (f + (1 - f) / p)


def test_fit_recovers_exact_amdahl():
    f = 0.12
    pts = {p: amdahl(f, p) for p in (2, 4, 8, 16)}
    fit = fit_amdahl(pts)
    assert fit.serial_fraction == pytest.approx(f, abs=1e-9)
    assert fit.rmse == pytest.approx(0.0, abs=1e-9)


def test_predict_matches_formula():
    fit = AmdahlFit(serial_fraction=0.2, rmse=0.0, measured={})
    assert fit.predict(4) == pytest.approx(amdahl(0.2, 4))


def test_max_speedup():
    assert AmdahlFit(0.25, 0.0, {}).max_speedup == 4.0
    assert AmdahlFit(0.0, 0.0, {}).max_speedup == math.inf


def test_fit_clamps_superlinear():
    # superlinear points imply f < 0; estimate must clamp to [0, 1]
    fit = fit_amdahl({2: 2.5, 4: 5.0})
    assert 0.0 <= fit.serial_fraction <= 1.0


def test_fit_requires_parallel_point():
    with pytest.raises(ValueError):
        fit_amdahl({1: 1.0})


def test_fit_ignores_none_and_p1():
    fit = fit_amdahl({1: 1.0, 2: None, 4: amdahl(0.1, 4)})
    assert fit.serial_fraction == pytest.approx(0.1, abs=1e-9)


def test_efficiency_curve():
    eff = efficiency_curve({2: 1.8, 4: 3.0, 8: None})
    assert eff[2] == pytest.approx(0.9)
    assert eff[4] == pytest.approx(0.75)
    assert eff[8] is None


def test_compare_algorithms():
    sweeps = {
        "rowwise": {p: amdahl(0.08, p) for p in (2, 4, 8)},
        "netwise": {p: amdahl(0.30, p) for p in (2, 4, 8)},
    }
    fits = compare_algorithms(sweeps)
    assert fits["netwise"].serial_fraction > fits["rowwise"].serial_fraction


def test_fit_on_real_run():
    """The measured hybrid sweep fits Amdahl with a modest residual."""
    from repro.circuits import mcnc
    from repro.parallel import route_parallel
    from repro.parallel.driver import serial_baseline
    from repro.perfmodel import SPARCCENTER_1000
    from repro.twgr import RouterConfig

    circuit = mcnc.generate("primary1", scale=0.15, seed=2)
    config = RouterConfig(seed=2)
    base = serial_baseline(circuit, config, machine=SPARCCENTER_1000)
    pts = {
        p: route_parallel(
            circuit, "hybrid", nprocs=p, config=config, baseline=base
        ).speedup
        for p in (2, 4, 8)
    }
    fit = fit_amdahl(pts)
    assert 0.0 < fit.serial_fraction < 0.6
    assert fit.rmse < 1.0


def test_fits_from_engine_records():
    from repro.analysis.scaling import fits_from_records, speedups_from_records
    from repro.exec import SweepPoint, run_sweep_salvage
    from repro.twgr.config import RouterConfig

    cfg = RouterConfig(seed=13)
    points = [
        SweepPoint(circuit="primary1", algorithm=a, nprocs=p, scale=0.05,
                   circuit_seed=1, config=cfg)
        for a in ("rowwise", "hybrid") for p in (2, 4)
    ]
    outcome = run_sweep_salvage(points, jobs=1)
    assert outcome.ok
    records = outcome.records
    sweeps = speedups_from_records(records)
    assert set(sweeps) == {"rowwise", "hybrid"}
    assert set(sweeps["rowwise"]) == {2, 4}
    fits = fits_from_records(records)
    assert set(fits) == {"rowwise", "hybrid"}
    for algo, fit in fits.items():
        assert 0.0 <= fit.serial_fraction <= 1.0
        assert fit.measured == {
            p: s for p, s in sweeps[algo].items() if s is not None and s > 0
        }
    # serial-only record sets produce no fit instead of raising
    assert fits_from_records([r for r in records if r.algorithm == "serial"]) == {}


def test_speedup_table_from_profiled_runs():
    """Engine records now carry per-step profiles; the scaling tables and

    the telemetry must describe the same runs consistently: step span
    seconds can never exceed the enclosing rank/run span."""
    from repro.analysis.scaling import speedups_from_records
    from repro.exec import SweepPoint, run_sweep_salvage
    from repro.twgr.config import RouterConfig

    cfg = RouterConfig(seed=13)
    points = [
        SweepPoint(circuit="primary1", algorithm="hybrid", nprocs=p, scale=0.05,
                   circuit_seed=1, config=cfg)
        for p in (2, 4)
    ]
    outcome = run_sweep_salvage(points, jobs=1)
    assert outcome.ok
    records = outcome.records
    sweeps = speedups_from_records(records)
    assert set(sweeps["hybrid"]) == {2, 4}

    for rec in records:
        if rec.algorithm == "serial":
            continue
        prof = rec.run_profile()
        assert prof is not None
        # speedup inputs and profile describe the same run shape
        assert prof.algorithm == rec.algorithm
        assert prof.nprocs == rec.nprocs
        # per-step wall time must nest inside the run: each rank's step
        # spans are disjoint within its thread and contained in the run
        # extent, so their sum is bounded by nprocs * total elapsed time
        # (plus a small tolerance for clock granularity).
        step_sum_s = sum(
            span["wall_sum_s"] for span in prof.steps.values()
        )
        assert prof.total_wall_s > 0.0
        assert step_sum_s <= prof.nprocs * prof.total_wall_s * 1.01 + 1e-6
