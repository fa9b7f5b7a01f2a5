"""Router configuration.

One :class:`RouterConfig` fully determines a routing run on a given
circuit — including every random order — so serial and parallel runs are
reproducible and comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import numpy as np

from repro.grid.coarse import CostWeights


@dataclass(frozen=True, slots=True)
class RouterConfig:
    """Knobs of the serial router (parallel additions live in
    :class:`repro.parallel.driver.ParallelConfig`)."""

    #: master seed; every internal RNG derives from it
    seed: int = 0
    #: x units per coarse grid column
    col_width: int = 8
    #: distance between adjacent rows, in x units (used by MSTs and
    #: wirelength; standard cells are much taller than a routing pitch)
    row_pitch: int = 10
    #: improvement passes over the coarse segment pool (step 2)
    coarse_passes: int = 2
    #: maximum improvement passes over switchable segments (step 5)
    switch_passes: int = 3
    #: apply Steiner-point refinement to net MSTs (step 1)
    refine_steiner: bool = True
    #: coarse cost weights
    weights: CostWeights = field(default_factory=CostWeights)
    #: cell row height in track pitches (area model)
    cell_height: int = 10
    #: physical pitch of one routing track (area model)
    track_pitch: int = 1
    #: penalty weight for connection edges skipping rows (should never be
    #: needed when feedthrough assignment worked; kept huge)
    skip_row_penalty: int = 10_000
    #: SPMD transport: ``"inprocess"`` (deterministic threads — the test
    #: oracle, and the default) or ``"multiprocess"`` (one OS process per
    #: rank, measured wall-clock times on real cores).  Transports are
    #: result-identical by contract — this knob only changes *how* ranks
    #: execute and which measured times exist.
    transport: str = "inprocess"

    def rng(self, *stream: int) -> np.random.Generator:
        """A deterministic RNG for a named sub-stream.

        Different steps (and different parallel ranks) pass distinct
        stream ids, giving independent but reproducible randomness.
        """
        return np.random.default_rng([self.seed & 0x7FFFFFFF, *stream])

    def with_seed(self, seed: int) -> "RouterConfig":
        """Copy of this config with a different master seed."""
        return replace(self, seed=seed)

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range knobs."""
        if self.col_width <= 0:
            raise ValueError("col_width must be positive")
        if self.row_pitch <= 0:
            raise ValueError("row_pitch must be positive")
        if self.coarse_passes < 1:
            raise ValueError("need at least one coarse pass")
        if self.switch_passes < 0:
            raise ValueError("switch_passes must be >= 0")
        if self.cell_height <= 0 or self.track_pitch <= 0:
            raise ValueError("area model pitches must be positive")
        # fail at config-validation time, not mid-route
        from repro.mpi.runtime import check_transport

        check_transport(self.transport)

    def resolved_backend(self) -> str:
        """The congestion core a run under this config uses — always
        ``"python"``, the only one.  Kept as the stamp of the benchmark's
        records (``routebench/``)."""
        return "python"
