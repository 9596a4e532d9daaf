"""Maximum diversity as an exact simplex-constrained quadratic minimization.

Maximum diversity is 1 / min { mu' Z mu : mu in the probability simplex }.
On the simplex mu' (Z + 11') mu = mu' Z mu + 1, so both forms share their
minimizer, and Z + 11' stays positive definite even where a positive
semidefinite Z is singular.  With one Cholesky factor L L' = Z + 11' and
b = L^-1 1, the vector w = L'^-1 b solves (Z + 11') w = 1 and is
proportional to Z^-1 1.  When w >= 0 the space is positively weighted and
mu = w / sum(w) is exact.  Otherwise the minimizer is the positive weighting
of some subset (Leinster & Meckes, arXiv:1512.06314), found by
Lawson-Hanson nonnegative least squares min ||L' w - b|| over w >= 0 on the
same factor, whose objective is w' (Z + 11') w - 2 1'w plus a constant.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IndefiniteForm, Inconsistent, NotConverged
from .magnitude import (
    SpectrumDiagnostics, _Kron, _lapack, _weighting, similarity, spectrum_diagnostics,
)
from .metric_core import FiniteMetricSpace

SUPPORT_THRESHOLD = 1e-9
GAP_TOL = 1e-8  # converged when the KKT gap is at most GAP_TOL * q(mu)
NNLS_MAX_ITERS = 100_000  # active-set steps before NotConverged
AGREEMENT_TOL = 1e-7  # relative |magnitude - diversity| of a positive weighting


@dataclass(frozen=True)
class DiversityReport:
    diversity: float
    measure: np.ndarray
    support: tuple
    fw_gap: float
    iterations: int
    converged: bool
    upper_bound: float


def max_diversity(space: FiniteMetricSpace) -> DiversityReport:
    """Minimize mu' Z mu over the probability simplex exactly.

    Takes one triangular solve pair when the space is positively weighted
    and one NNLS solve (at most NNLS_MAX_ITERS active-set steps) otherwise;
    `iterations` counts the solves.  `fw_gap` is the KKT gap
    2 mu'Z mu - 2 min(Z mu) at the returned measure, so 1/(q(mu) - gap)
    bounds the maximum diversity from above, and the report is converged
    when the gap is at most GAP_TOL * q(mu).
    """
    diag = spectrum_diagnostics(space)
    if diag.verdict == "Indefinite":
        raise IndefiniteForm(
            f"similarity matrix is indefinite (lambda_min={diag.lambda_min:.3g}); "
            "the quadratic form is nonconvex",
            diagnostics=diag,
        )
    return _max_diversity(similarity(space), diag)


def _max_diversity(z: np.ndarray, diag: SpectrumDiagnostics) -> DiversityReport:
    """`max_diversity`, given Z and its spectrum diagnostics, not Indefinite."""
    from scipy.linalg import solve_triangular
    potrf = _lapack()[0]
    # clean=True zeroes the upper triangle, which NNLS reads through factor.T
    factor, info = potrf(z + 1.0, lower=True)
    if info != 0:
        # A semidefinite Z can be singular along a mean-zero direction, which
        # adding 11' does not lift (K_{n,n} at its threshold log(n-1)).  The
        # verdict bounds lambda_min below by -tau, so 2 tau I restores a
        # factor; the gap below is still measured on Z itself.
        shift = 2.0 * diag.tolerance_used
        warnings.warn(
            f"Z + 11' is singular; factoring Z + 11' + {shift:.3g} I instead",
            RuntimeWarning,
            stacklevel=2,
        )
        factor, info = potrf(z + 1.0 + shift * np.eye(z.shape[0]), lower=True)
    if info != 0:
        raise IndefiniteForm(
            f"Z + 11' has no Cholesky factor (lambda_min={diag.lambda_min:.3g})",
            diagnostics=diag,
        )
    b = solve_triangular(factor, np.ones(z.shape[0]), lower=True)
    w = solve_triangular(factor, b, lower=True, trans="T")
    iterations = 1
    if w.min() < 0.0:
        from scipy.optimize import nnls

        try:
            w, _ = nnls(factor.T, b, maxiter=NNLS_MAX_ITERS)
        except RuntimeError as exc:
            raise NotConverged(
                f"nonnegative least squares stopped after {NNLS_MAX_ITERS} steps"
            ) from exc
        iterations = 2

    mu = w / w.sum()
    zmu = z @ mu
    q = float(mu @ zmu)
    gap = max(0.0, 2.0 * q - 2.0 * float(zmu.min()))
    support = tuple(int(i) for i in np.flatnonzero(mu > SUPPORT_THRESHOLD))
    upper = 1.0 / (q - gap) if q - gap > 0 else math.inf
    return DiversityReport(
        diversity=1.0 / q,
        measure=mu,
        support=support,
        fw_gap=gap,
        iterations=iterations,
        converged=gap <= GAP_TOL * q,
        upper_bound=upper,
    )


def is_positively_weighted(space: FiniteMetricSpace) -> bool:
    """Decide whether magnitude equals maximum diversity.

    The verdict is the sign of the weighting.  The diversity solve
    cross-checks it: its NNLS branch runs exactly when Z^-1 1 has a negative
    entry, so a negative weighting must have taken that branch.  The values
    cannot confirm a negative sign, because the diversity deficit is second
    order in the negative weight (-2e-4 gives a relative gap near 1e-9), so
    they are compared only for a nonnegative weighting, where magnitude and
    diversity must agree to AGREEMENT_TOL.  A disagreement raises
    Inconsistent.  One similarity matrix serves the verdict and both solves.
    """
    z = similarity(space)
    op = _Kron((z[None],))
    diag = op.spectrum()
    report = _weighting(op, diag)  # raises NotPositiveDefinite when not PD
    flag_w = report.positively_weighted
    div = _max_diversity(z, diag)
    gap = abs(report.magnitude - div.diversity)
    if (flag_w and gap > AGREEMENT_TOL * report.magnitude) or (
        not flag_w and div.iterations == 1
    ):
        raise Inconsistent(
            f"weighting sign says {flag_w} but the diversity solve took "
            f"{div.iterations} step(s) and |magnitude - diversity| = {gap:.3g} "
            f"(magnitude {report.magnitude:.6g}, diversity {div.diversity:.6g})"
        )
    return flag_w


def diversity_diameter_check(space: FiniteMetricSpace) -> bool:
    """Maximum diversity never exceeds exp(diameter)."""
    report = max_diversity(space)
    return report.diversity <= math.exp(space.diameter) + 1e-9
