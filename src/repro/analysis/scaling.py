"""Scaling analysis: efficiency curves and Amdahl fits.

Given a sweep of :class:`~repro.parallel.driver.ParallelRun` results over
processor counts, estimate the effective serial fraction via a
least-squares fit of Amdahl's law — a compact way to compare how the
three algorithms' overheads scale, and to extrapolate beyond measured
processor counts.  :func:`speedups_from_records` /
:func:`fits_from_records` consume the run records the execution engine
(:func:`repro.exec.run_sweep_salvage`) produces, so a cached sweep can be
re-analyzed without recomputing anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.record import RunRecord


@dataclass(frozen=True, slots=True)
class AmdahlFit:
    """Least-squares fit of ``speedup(p) = 1 / (f + (1 - f)/p)``."""

    serial_fraction: float
    #: root-mean-square error of the fit over the measured points
    rmse: float
    measured: Dict[int, float]

    def predict(self, nprocs: int) -> float:
        """Speedup Amdahl's law predicts at ``nprocs``."""
        f = self.serial_fraction
        return 1.0 / (f + (1.0 - f) / nprocs)

    @property
    def max_speedup(self) -> float:
        """Asymptotic speedup bound ``1/f`` (inf when f == 0)."""
        return float("inf") if self.serial_fraction == 0 else 1.0 / self.serial_fraction

    def summary(self) -> str:
        """One-line description of the fit."""
        bound = (
            "unbounded" if self.max_speedup == float("inf")
            else f"{self.max_speedup:.1f}x"
        )
        return (
            f"serial fraction ~{self.serial_fraction:.1%}, "
            f"asymptotic bound {bound}, fit rmse {self.rmse:.3f}"
        )


def fit_amdahl(speedups: Mapping[int, float]) -> AmdahlFit:
    """Fit Amdahl's law to measured ``nprocs -> speedup`` points.

    Each point gives a closed-form estimate ``f = (p/S - 1)/(p - 1)``;
    the fit takes the clamped mean over points with ``p > 1`` and reports
    the residual error.  Needs at least one multi-processor point.
    """
    pts = {p: s for p, s in speedups.items() if p > 1 and s is not None and s > 0}
    if not pts:
        raise ValueError("need at least one speedup measured at nprocs > 1")
    estimates = []
    for p, s in pts.items():
        f = (p / s - 1.0) / (p - 1.0)
        estimates.append(min(max(f, 0.0), 1.0))
    f_hat = float(np.mean(estimates))
    fit = AmdahlFit(serial_fraction=f_hat, rmse=0.0, measured=dict(pts))
    rmse = float(
        np.sqrt(np.mean([(fit.predict(p) - s) ** 2 for p, s in pts.items()]))
    )
    return AmdahlFit(serial_fraction=f_hat, rmse=rmse, measured=dict(pts))


def efficiency_curve(speedups: Mapping[int, Optional[float]]) -> Dict[int, Optional[float]]:
    """``nprocs -> parallel efficiency`` (speedup / nprocs)."""
    return {
        p: (s / p if s is not None else None) for p, s in sorted(speedups.items())
    }


def compare_algorithms(
    sweeps: Mapping[str, Mapping[int, float]]
) -> Dict[str, AmdahlFit]:
    """Amdahl fits per algorithm from their speedup sweeps."""
    return {name: fit_amdahl(sweep) for name, sweep in sweeps.items()}


def speedups_from_records(
    records: Sequence["RunRecord"],
) -> Dict[str, Dict[int, Optional[float]]]:
    """Group engine run records into per-algorithm speedup sweeps.

    Serial baselines are skipped (they define speedup, they don't have
    one); a later record for the same ``(algorithm, nprocs)`` wins.
    """
    out: Dict[str, Dict[int, Optional[float]]] = {}
    for rec in records:
        if rec.algorithm == "serial" or rec.timing is None:
            continue
        out.setdefault(rec.algorithm, {})[rec.nprocs] = rec.parallel_run().speedup
    return out


def fits_from_records(records: Sequence["RunRecord"]) -> Dict[str, AmdahlFit]:
    """Amdahl fits per algorithm straight from engine run records.

    Algorithms without any usable multi-processor speedup (e.g. every
    baseline hit the memory gate) are omitted rather than raising.
    """
    fits: Dict[str, AmdahlFit] = {}
    for name, sweep in speedups_from_records(records).items():
        usable = {p: s for p, s in sweep.items() if p > 1 and s is not None and s > 0}
        if usable:
            fits[name] = fit_amdahl(usable)
    return fits
