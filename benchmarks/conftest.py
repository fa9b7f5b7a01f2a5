"""Shared fixtures for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper's evaluation
section and prints it (run pytest with ``-s`` to see them inline; they
are also asserted structurally).  The grid — circuits, processor counts,
scale, seed and machine — is the shipped spec,
``benchmarks/specs/paper_suite.toml``, which EXPERIMENTS.md documents,
and the whole session shares one run cache, so figure benchmarks replay
their table counterparts' routing runs.
"""

from pathlib import Path

import pytest

from repro.analysis.specs import load_spec
from repro.exec import RunCache


@pytest.fixture(scope="session")
def spec():
    return load_spec(Path(__file__).parent / "specs" / "paper_suite.toml")


@pytest.fixture(scope="session")
def cache(tmp_path_factory):
    """The session's run cache, in a temporary directory."""
    return RunCache(tmp_path_factory.mktemp("runs"))


@pytest.fixture(scope="session")
def emit():
    """Print an artifact so it lands in the benchmark log."""

    def _emit(text: str) -> None:
        print("\n" + text + "\n")

    return _emit
