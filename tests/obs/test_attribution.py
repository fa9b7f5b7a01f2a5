"""Work attribution: a traced run's spans account for every charged unit.

The tracer reads each thread's work tally at span boundaries, so the
``ops.*`` metrics summed over all spans must equal the work the ranks'
clocks were charged — including charges made straight on
``comm.counter`` (step 1's parallel tree building, the final metrics).
"""

from __future__ import annotations

import pytest

from repro.obs.tracer import Tracer
from repro.parallel.driver import route_parallel
from repro.perfmodel.counter import TallyCounter
from repro.twgr.router import GlobalRouter


def _span_ops(roots: list) -> dict:
    """``ops.*`` summed over every span, root by root in list order."""
    out: dict = {}
    for root in roots:
        for span in root.walk():
            for name, units in span.metrics.items():
                if name.startswith("ops."):
                    out[name[4:]] = out.get(name[4:], 0.0) + units
    return out


def _by_rank(tracer: Tracer) -> list:
    # rank order, as the result merges the gathered tallies: fractional
    # units (net-wise's switch surcharge) make the float sum order-sensitive
    return sorted(tracer.roots, key=lambda s: s.tags["rank"])


@pytest.mark.parametrize("nprocs", [2, 3])
@pytest.mark.parametrize("transport", ["inprocess", "multiprocess"])
@pytest.mark.parametrize("algorithm", ["rowwise", "netwise", "hybrid"])
def test_span_ops_sum_to_rank_work_units(
    small_circuit, config, algorithm, transport, nprocs
):
    tracer = Tracer()
    run = route_parallel(
        small_circuit, algorithm=algorithm, nprocs=nprocs, config=config,
        compute_baseline=False, transport=transport, obs=tracer,
    )
    # RoutingResult.work_units holds the gathered rank-clock tallies
    assert _span_ops(_by_rank(tracer)) == run.result.work_units
    step1 = [s for s in tracer.walk() if s.name == "step1_steiner"]
    assert len(step1) == nprocs
    assert all(s.metrics.get("ops.steiner", 0.0) > 0 for s in step1)


def test_serial_span_ops_sum_to_work_units(small_circuit, config):
    tracer = Tracer()
    tally = TallyCounter()
    GlobalRouter(config).route(small_circuit, counter=tally, tracer=tracer)
    assert _span_ops(tracer.roots) == tally.units
