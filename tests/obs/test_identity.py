"""Tracing must be passive: bit-identical results, near-zero off cost."""

from __future__ import annotations

import time

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.driver import route_parallel, serial_baseline
from repro.twgr.router import GlobalRouter


def _fingerprint(result):
    return (
        result.total_tracks,
        dict(result.channel_tracks),
        result.num_feedthroughs,
        result.horizontal_wirelength,
        result.vertical_wirelength,
        result.core_width,
        result.area,
        result.side_conflicts,
        result.unplanned_crossings,
        result.num_spans,
        result.flips,
        dict(result.work_units),
        result.model_time,
    )


def test_serial_route_bit_identical_with_tracer(small_circuit, config):
    plain = GlobalRouter(config).route(small_circuit)
    tracer = Tracer()
    traced = GlobalRouter(config).route(small_circuit, tracer=tracer)
    assert _fingerprint(traced) == _fingerprint(plain)
    # ... and the tracer actually saw the pipeline.
    steps = tracer.step_totals()
    assert set(steps) >= {
        "step1_steiner",
        "step2_coarse",
        "step3_feedthrough",
        "step4_connect",
        "step5_switch",
    }


def test_serial_baseline_bit_identical_with_tracer(small_circuit, config):
    plain = serial_baseline(small_circuit, config=config)
    traced = serial_baseline(small_circuit, config=config, tracer=Tracer())
    assert _fingerprint(traced) == _fingerprint(plain)


def test_parallel_route_bit_identical_with_tracer(small_circuit, config):
    kwargs = dict(
        algorithm="hybrid",
        nprocs=2,
        config=config,
        compute_baseline=False,
    )
    plain = route_parallel(small_circuit, **kwargs)
    obs = Tracer()
    traced = route_parallel(small_circuit, obs=obs, **kwargs)
    assert _fingerprint(traced.result) == _fingerprint(plain.result)
    steps = obs.step_totals()
    assert "step1_steiner" in steps
    assert "step5_switch" in steps
    # one rank span per process
    assert steps["step1_steiner"]["count"] == 2


def test_netwise_route_bit_identical_with_tracer(small_circuit, config):
    kwargs = dict(
        algorithm="netwise",
        nprocs=2,
        config=config,
        compute_baseline=False,
    )
    plain = route_parallel(small_circuit, **kwargs)
    traced = route_parallel(small_circuit, obs=Tracer(), **kwargs)
    assert _fingerprint(traced.result) == _fingerprint(plain.result)


def test_null_tracer_overhead_below_five_percent(small_circuit, config):
    """The off-switch must be free: NULL_TRACER routes within 5% of the
    tracer-free call.

    The two legs alternate round by round and each keeps its best time,
    so a swing in host capacity lands on both legs instead of showing up
    as overhead."""

    def timed(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    router = GlobalRouter(config)

    def bare_leg():
        router.route(small_circuit)

    def nulled_leg():
        router.route(small_circuit, tracer=NULL_TRACER)

    # Warm caches so the first measured run is not penalised.
    bare_leg()
    nulled_leg()

    bare = nulled = float("inf")
    for _ in range(5):
        bare = min(bare, timed(bare_leg))
        nulled = min(nulled, timed(nulled_leg))
    # NULL_TRACER hooks are no-ops on the same object graph; allow 5% for
    # timing jitter either way.
    assert nulled <= bare * 1.05 + 1e-3
