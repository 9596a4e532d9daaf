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

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import IndefiniteForm, Inconsistent, InvalidParams, NotConverged
from .magnitude import similarity, spectrum_diagnostics, weighting
from .metric_core import FiniteMetricSpace

SUPPORT_THRESHOLD = 1e-9


@dataclass(frozen=True)
class DiversityReport:
    diversity: float
    measure: np.ndarray
    support: tuple
    fw_gap: float
    iterations: int
    converged: bool
    upper_bound: float

    def to_dict(self) -> dict:
        return {
            "diversity": self.diversity,
            "upper_bound": self.upper_bound,
            "measure": np.asarray(self.measure).tolist(),
            "support": list(self.support),
            "fw_gap": self.fw_gap,
            "iterations": self.iterations,
            "converged": self.converged,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def max_diversity(
    space: FiniteMetricSpace, tol: float = 1e-8, max_iters: int = 100_000
) -> DiversityReport:
    """Minimize mu' Z mu over the probability simplex exactly.

    Takes one triangular solve pair when the space is positively weighted
    and one NNLS solve (at most max_iters active-set steps) otherwise;
    `iterations` counts the solves.  `fw_gap` is the KKT gap
    2 mu'Z mu - 2 min(Z mu) at the returned measure, so 1/(q(mu) - gap)
    bounds the maximum diversity from above, and the report is converged
    when the gap is at most tol * q(mu).
    """
    if not tol > 0:
        raise InvalidParams("tol must be positive")
    if max_iters < 1:
        raise InvalidParams("max_iters must be at least 1")
    diag = spectrum_diagnostics(space)
    if diag.verdict == "Indefinite":
        raise IndefiniteForm(
            f"similarity matrix is indefinite (lambda_min={diag.lambda_min:.3g}); "
            "the quadratic form is nonconvex",
            diagnostics=diag,
        )
    z = similarity(space).z
    try:
        factor = scipy.linalg.cholesky(z + 1.0, lower=True)
    except scipy.linalg.LinAlgError:
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
        try:
            factor = scipy.linalg.cholesky(
                z + 1.0 + shift * np.eye(z.shape[0]), lower=True
            )
        except scipy.linalg.LinAlgError as exc:
            raise IndefiniteForm(
                f"Z + 11' has no Cholesky factor (lambda_min={diag.lambda_min:.3g})",
                diagnostics=diag,
            ) from exc
    b = scipy.linalg.solve_triangular(factor, np.ones(z.shape[0]), lower=True)
    w = scipy.linalg.solve_triangular(factor, b, lower=True, trans="T")
    iterations = 1
    if w.min() < 0.0:
        from scipy.optimize import nnls

        try:
            w, _ = nnls(factor.T, b, maxiter=max_iters)
        except RuntimeError as exc:
            raise NotConverged(
                f"nonnegative least squares stopped after max_iters={max_iters}"
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
        converged=gap <= tol * q,
        upper_bound=upper,
    )


def is_positively_weighted(
    space: FiniteMetricSpace, tol: float = 1e-7
) -> tuple[bool, str]:
    """Decide whether magnitude equals maximum diversity.

    The fast certificate is the sign of the weighting; the cross-check
    compares magnitude with the computed diversity.  Disagreement between
    the two is surfaced as Inconsistent rather than hidden.
    """
    report = weighting(space)  # raises NotPositiveDefinite when not PD
    flag_w = report.positively_weighted
    div = max_diversity(space)
    if not div.converged:
        return flag_w, "weighting_sign_only"
    flag_d = abs(report.magnitude - div.diversity) <= tol * report.magnitude
    if flag_w != flag_d:
        raise Inconsistent(
            f"weighting sign says {flag_w} but |magnitude - diversity| = "
            f"{abs(report.magnitude - div.diversity):.3g} "
            f"(magnitude {report.magnitude:.6g}, diversity {div.diversity:.6g})"
        )
    return flag_w, "weighting_sign"


def diversity_diameter_check(space: FiniteMetricSpace) -> bool:
    """Maximum diversity never exceeds exp(diameter)."""
    report = max_diversity(space)
    return report.diversity <= math.exp(space.diameter) + 1e-9
