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
            skip_row_penalty=5000, transport="multiprocess",
        ),
    ),
}

#: recorded under CODE_SALT "repro-exec-v5"
PINNED_KEYS = {
    "default": "603019c11580127d3b394215245f50d6ea0dd73277db350769ca5a2fa34f5588",
    "serial": "ce28d8e80847f1b97d38df08513ea3f2ae23e9d79a62a2f1afdc7081a5882219",
    "parallel": "ff99ed92a79b779649b6c7e91f69468e9badf15b70350143b80d9814409360ed",
    "faulted": "ca3e544dfbb57217225cfa7cc23e14469e7e6ed097685b62b787205bfe6a29d9",
    "configured": "b47fff727b81da36be42b9e5901fb398fa6f2e0976d0d9fff042b77fa82c5473",
}


def test_table_was_recorded_under_the_current_salt():
    assert CODE_SALT == "repro-exec-v5", (
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
