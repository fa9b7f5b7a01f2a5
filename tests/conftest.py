"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.circuits import CircuitBuilder, mcnc
from repro.circuits.generator import SyntheticSpec, generate_circuit
from repro.exec.engine import clear_circuit_memo
from repro.twgr import GlobalRouter, RouterConfig


@pytest.fixture(autouse=True)
def _empty_circuit_memo():
    """Start every test with an empty engine circuit memo, so a test that
    patches the generator sees every build the engine makes."""
    clear_circuit_memo()


@pytest.fixture
def tiny_circuit():
    """A 3-row, hand-built circuit exercising multi-row and same-row nets."""
    b = CircuitBuilder(rows=3, name="tiny")
    c00 = b.cell(row=0, width=4)
    c01 = b.cell(row=0, width=4)
    c10 = b.cell(row=1, width=4)
    c11 = b.cell(row=1, width=4)
    c20 = b.cell(row=2, width=4)
    c21 = b.cell(row=2, width=4)
    b.net("n_vertical", [(c00, 1), (c20, 2)])
    b.net("n_same_row", [(c10, 0), (c11, 3)], equiv=[True, True])
    b.net("n_diag", [(c01, 2), (c11, 1), (c21, 0)])
    return b.build()


@pytest.fixture
def small_circuit():
    """A seeded synthetic circuit, small enough for fast routing tests."""
    spec = SyntheticSpec(name="small", rows=8, cells=120, nets=140, mean_degree=3.0)
    return generate_circuit(spec, seed=7)


@pytest.fixture
def medium_circuit():
    """A scaled primary1-like benchmark for parallel tests."""
    return mcnc.generate("primary1", scale=0.25, seed=3)


@pytest.fixture
def config():
    return RouterConfig(seed=11)


@pytest.fixture
def router(config):
    return GlobalRouter(config)
