"""Similarity matrices, PSD diagnostics, weightings, magnitude, scale sweeps.

The similarity matrix of a finite metric space X at scale t is
Z(tX) = exp(-t d(x, y)).  When it is positive definite the magnitude of tX
is the sum of the weighting w solving  Z w = 1.  The verdict, the weighting
and the diversity all read one Z, which the private helpers take as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import DegenerateQuadraticForm, InsufficientRecords, NotPositiveDefinite
from .metric_core import FiniteMetricSpace, _check_scale


def psd_tolerance(lambda_max: float) -> float:
    """Verdict band: scale-invariant and conservative for entries <= 1."""
    return 1e-9 * max(1.0, lambda_max)


@dataclass(frozen=True)
class SpectrumDiagnostics:
    lambda_min: float
    lambda_max: float
    condition_estimate: float
    verdict: str  # PositiveDefinite | PositiveSemidefinite | Indefinite
    tolerance_used: float


@dataclass(frozen=True)
class MagnitudeReport:
    magnitude: float
    weighting: np.ndarray
    residual: float
    positively_weighted: bool
    diagnostics: SpectrumDiagnostics


@dataclass(frozen=True)
class SweepRecord:
    t: float
    lambda_min: float
    verdict: str
    magnitude: Optional[float] = None
    diversity: Optional[float] = None


@dataclass(frozen=True)
class ScaleSweep:
    records: list
    spec: Optional[str] = None  # SpaceSpec JSON of the unscaled space


def similarity(space: FiniteMetricSpace, t: float = 1.0) -> np.ndarray:
    """Z(tX): entrywise exp(-t d), read-only, with an exactly unit diagonal."""
    _check_scale(t)
    z = np.exp(-t * space.dist)
    np.fill_diagonal(z, 1.0)
    z.setflags(write=False)
    return z


def _extremal_eigenvalues(z: np.ndarray) -> tuple[float, float]:
    vals = np.linalg.eigvalsh(z)
    return float(vals[0]), float(vals[-1])


def spectrum_diagnostics(space: FiniteMetricSpace) -> SpectrumDiagnostics:
    """Extremal eigenvalues of the similarity matrix and a PSD verdict."""
    return _spectrum(similarity(space))


def _spectrum(z: np.ndarray) -> SpectrumDiagnostics:
    """`spectrum_diagnostics`, given the similarity matrix."""
    lo, hi = _extremal_eigenvalues(z)
    tau = psd_tolerance(hi)
    if lo > tau:
        verdict = "PositiveDefinite"
    elif lo >= -tau:
        verdict = "PositiveSemidefinite"
    else:
        verdict = "Indefinite"
    cond = hi / lo if lo > 0 else math.inf
    return SpectrumDiagnostics(
        lambda_min=lo,
        lambda_max=hi,
        condition_estimate=cond,
        verdict=verdict,
        tolerance_used=tau,
    )


def weighting(space: FiniteMetricSpace) -> MagnitudeReport:
    """Solve Z w = 1 by Cholesky with one step of iterative refinement."""
    diag = spectrum_diagnostics(space)
    return _weighting(similarity(space), diag)


def _weighting(z: np.ndarray, diag: SpectrumDiagnostics) -> MagnitudeReport:
    """`weighting`, given the similarity matrix and its spectrum diagnostics."""
    if diag.verdict != "PositiveDefinite":
        raise NotPositiveDefinite(
            f"similarity matrix is {diag.verdict} (lambda_min={diag.lambda_min:.3g})",
            diagnostics=diag,
        )
    ones = np.ones(z.shape[0])
    try:
        factor = scipy.linalg.cho_factor(z, lower=True)
        w = scipy.linalg.cho_solve(factor, ones)
        w = w + scipy.linalg.cho_solve(factor, ones - z @ w)
    except scipy.linalg.LinAlgError:
        # Marginally PD matrices can fail to factor; least squares still
        # yields a usable weighting with an honest residual.
        w, *_ = np.linalg.lstsq(z, ones, rcond=None)
    residual = float(np.abs(z @ w - 1.0).max())
    tau_w = 1e-10 * max(1.0, float(np.abs(w).max()))
    return MagnitudeReport(
        magnitude=float(w.sum()),
        weighting=w,
        residual=residual,
        positively_weighted=bool(w.min() >= -tau_w),
        diagnostics=diag,
    )


def magnitude(space: FiniteMetricSpace) -> float:
    return weighting(space).magnitude


def rayleigh(space: FiniteMetricSpace, mu) -> float:
    """The quotient (sum mu)^2 / (mu' Z mu)."""
    mu = np.asarray(mu, dtype=float)
    z = similarity(space)
    denom = float(mu @ z @ mu)
    if abs(denom) <= 1e-14 * float(mu @ mu):
        raise DegenerateQuadraticForm("quadratic form vanishes at this vector")
    return float(mu.sum()) ** 2 / denom


def scale_sweep(
    space: FiniteMetricSpace, grid, with_diversity: bool = False
) -> ScaleSweep:
    """Diagnostics (and magnitude/diversity where defined) for each t in grid."""
    ts = sorted(float(t) for t in grid)
    if not ts:
        raise InsufficientRecords("scale grid must be nonempty")
    records = []
    for t in ts:
        z = similarity(space, t)
        diag = _spectrum(z)
        mag = None
        div = None
        if diag.verdict == "PositiveDefinite":
            mag = _weighting(z, diag).magnitude
        if with_diversity and diag.verdict in ("PositiveDefinite", "PositiveSemidefinite"):
            from .diversity import _max_diversity

            div = _max_diversity(z, diag).diversity
        records.append(
            SweepRecord(
                t=t, lambda_min=diag.lambda_min, verdict=diag.verdict,
                magnitude=mag, diversity=div,
            )
        )
    spec = space.provenance
    return ScaleSweep(records=records, spec=None if spec is None else spec.to_json())


def magnitude_dimension_estimate(sweep: ScaleSweep, window) -> tuple[float, float]:
    """Least-squares slope of log magnitude against log t over a t-window."""
    lo, hi = window
    pts = [
        (r.t, r.magnitude)
        for r in sweep.records
        if r.magnitude is not None and lo <= r.t <= hi
    ]
    if len(pts) < 3:
        raise InsufficientRecords(
            f"need at least 3 magnitude records in window, have {len(pts)}"
        )
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    n = len(x)
    xbar, ybar = x.mean(), y.mean()
    sxx = float(((x - xbar) ** 2).sum())
    slope = float(((x - xbar) * (y - ybar)).sum()) / sxx
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    stderr = math.sqrt(float((resid**2).sum()) / (n - 2) / sxx)
    return slope, stderr
