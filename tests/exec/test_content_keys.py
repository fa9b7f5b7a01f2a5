"""Pinned content addresses: every user's cache depends on them.

``SweepPoint.key()`` is the run cache's content address.  A change to
how a point's spec is built (field walk, JSON canonicalization, which
knobs a serial point drops) that moves any of these keys silently
orphans every existing cache entry.  The table may change only together
with a :data:`~repro.exec.cache.CODE_SALT` bump.
"""

from __future__ import annotations

import pytest

from repro.exec import SweepPoint
from repro.exec.cache import CODE_SALT
from repro.grid.coarse import CostWeights
from repro.parallel.driver import ParallelConfig
from repro.twgr.config import RouterConfig

POINTS = {
    "default": SweepPoint(circuit="primary1"),
    "serial": SweepPoint(
        circuit="primary1", scale=0.05, circuit_seed=1,
        config=RouterConfig(seed=13),
    ),
    "parallel": SweepPoint(
        circuit="struct", algorithm="hybrid", nprocs=3, scale=0.1,
        circuit_seed=2, machine="Intel-Paragon", config=RouterConfig(seed=5),
        pconfig=ParallelConfig(
            net_scheme="density", alpha=1.5, connect_scheme="pin_weight",
            coarse_syncs_per_pass=2, switch_syncs_per_pass=8,
            switch_sync_mode="profile",
        ),
    ),
    "faulted": SweepPoint(
        circuit="primary1", algorithm="rowwise", nprocs=2, scale=0.05,
        circuit_seed=1, config=RouterConfig(seed=13),
        fault_plan="crash-step3", fault_seed=4,
    ),
    "configured": SweepPoint(
        circuit="primary2", scale=0.2, circuit_seed=3,
        config=RouterConfig(
            seed=7, col_width=6, coarse_passes=3, refine_steiner=False,
            weights=CostWeights(
                feed=3.0, feed_congestion=0.25, channel_congestion=0.5
            ),
            skip_row_penalty=5000, backend="python", transport="multiprocess",
        ),
    ),
}

#: recorded under CODE_SALT "repro-exec-v2"
PINNED_KEYS = {
    "default": "8dadaa5818a8a6b54ba8d7082ac4e698b8b8e572ff63ff16e046bbf3e13ff6b2",
    "serial": "a16af8852092c78f8e4019acdd04db1823a524e982fc4bdffb6a4f51191fbc4d",
    "parallel": "02641cbfc7a175088dd80bada1b7c64d6abd832250b9c9bed91f0b491e620cad",
    "faulted": "7051ebc5dfcd227f2b666ca0447ffdd353dd67fce91283162f905bb574cbdbc5",
    "configured": "a0a149ccb8e3a481975c2499c5a73c70ccdd8aacc23a070abe82f88fbb3704c0",
}


def test_table_was_recorded_under_the_current_salt():
    assert CODE_SALT == "repro-exec-v2", (
        "CODE_SALT changed: re-record PINNED_KEYS under the new salt"
    )


@pytest.mark.parametrize("name", sorted(POINTS))
def test_content_key_is_pinned(name):
    point = POINTS[name]
    point.validate()
    assert point.key() == PINNED_KEYS[name]


def test_serial_key_ignores_parallel_knobs():
    parallel = POINTS["parallel"]
    assert parallel.baseline_point().key() == SweepPoint(
        circuit="struct", scale=0.1, circuit_seed=2, machine="Intel-Paragon",
        config=RouterConfig(seed=5),
    ).key()
