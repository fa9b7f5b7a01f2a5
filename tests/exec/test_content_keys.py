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

#: recorded under CODE_SALT "repro-exec-v3"
PINNED_KEYS = {
    "default": "e46ab9c6f25c9f4cd51f537bc56f9006e6de7f254568d5b79c39a59fa1389d9e",
    "serial": "a316a5eb73bfbc7e35917a86f16d717e814d9cc98b002d11109736b85d5ff629",
    "parallel": "56623b85590e94ed8aa6d81ffa5482fdf45c01475217bec18102acf1f20a5248",
    "faulted": "251a705e54a6d76d94fa79ccb871bb8fd6156697697b265a33efc664f1882b46",
    "configured": "0cb43fb36c1b2a3e4e6734ad1959c61be71edfba4e19782c76a1c0249f5cc9e7",
}


def test_table_was_recorded_under_the_current_salt():
    assert CODE_SALT == "repro-exec-v3", (
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
