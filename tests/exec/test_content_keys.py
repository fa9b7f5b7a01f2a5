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

#: recorded under CODE_SALT "repro-exec-v4"
PINNED_KEYS = {
    "default": "29b976a24154744ab7494a34790c8afdd9dfebb7c836d5b9e9eca8c9b341cadc",
    "serial": "aa38a146ff14092ed39162673a511c348e07a92a03bdbc7d2dd723144ccb374c",
    "parallel": "ac2c75d7999a8599218e54b6697bcd1e15d330f331a9955eeed58757a8e0c5f3",
    "faulted": "6fb40f2873c6e6328f7c0b1260714499792c25867b2b19d714a76747b01af0fa",
    "configured": "d79f44dba937fa5d3e0df28e0c1430a2d0d2de936ea38df81a2323847f202db4",
}


def test_table_was_recorded_under_the_current_salt():
    assert CODE_SALT == "repro-exec-v4", (
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
