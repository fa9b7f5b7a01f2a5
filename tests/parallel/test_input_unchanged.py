"""Routing leaves its input circuit unchanged.

Every router works on private copies (``Circuit.clone``, per-rank
sub-circuits), so a caller may route the same ``Circuit`` object many
times and share it between routes.  These tests fingerprint a circuit,
route it serially and with every parallel algorithm, and check that
neither its content nor its set of attributes moved.
"""

from __future__ import annotations

import pytest

from repro.circuits import mcnc
from repro.parallel.driver import route_parallel
from repro.twgr import GlobalRouter, RouterConfig
from tests.circuits.fingerprint import circuit_fingerprint


@pytest.fixture(scope="module")
def circuit():
    return mcnc.generate("primary1", scale=0.2, seed=1)


def _snapshot(circuit):
    return circuit_fingerprint(circuit), sorted(vars(circuit))


def test_serial_route_leaves_circuit_unchanged(circuit):
    before = _snapshot(circuit)
    GlobalRouter(RouterConfig(seed=1)).route(circuit)
    assert _snapshot(circuit) == before


@pytest.mark.parametrize("nprocs", [2, 3])
@pytest.mark.parametrize("algorithm", ["rowwise", "netwise", "hybrid"])
def test_parallel_route_leaves_circuit_unchanged(circuit, algorithm, nprocs):
    before = _snapshot(circuit)
    route_parallel(
        circuit, algorithm=algorithm, nprocs=nprocs, config=RouterConfig(seed=1),
        compute_baseline=True,
    )
    assert _snapshot(circuit) == before
