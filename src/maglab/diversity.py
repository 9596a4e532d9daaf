"""Maximum diversity as an exact simplex-constrained quadratic minimization.

Maximum diversity is 1 / min { mu' Z mu : mu in the probability simplex }.
On the simplex mu' (Z + 11') mu = mu' Z mu + 1, so both forms share their
minimizer, and Z + 11' stays positive definite even where a positive
semidefinite Z is singular.  With one Cholesky factor L L' = Z + 11' and
b = L^-1 1, the vector w = L'^-1 b solves (Z + 11') w = 1 and is
proportional to Z^-1 1.  When w >= 0 the space is positively weighted and
mu = w / sum(w) is exact.  Otherwise the minimizer is the positive weighting
of some subset (Leinster & Meckes, arXiv:1512.06314): the w >= 0 that
minimizes w' (Z + 11') w - 2 1'w, found by block principal pivoting on
A = Z + 11' itself, started from the sign pattern of the w already solved.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IndefiniteForm, Inconsistent, NotConverged
from .magnitude import SpectrumDiagnostics, _Kron, _lapack, _similarity, _weighting, similarity
from .metric_core import FiniteMetricSpace

SUPPORT_THRESHOLD = 1e-9
GAP_TOL = 1e-8  # converged when the KKT gap is at most GAP_TOL * q(mu)
NNLS_MAX_ITERS = 100_000  # pivoting steps before NotConverged
BACKUP_EXCHANGES = 3  # exchanges of every infeasible index that may not lower their count
PIVOT_TOL = 1e-12  # y_i = (Aw - 1)_i above -PIVOT_TOL counts as feasible
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
    and one nonnegative solve (at most NNLS_MAX_ITERS pivoting steps)
    otherwise; `iterations` counts the solves.  `fw_gap` is the KKT gap
    2 mu'Z mu - 2 min(Z mu) at the returned measure, so 1/(q(mu) - gap)
    bounds the maximum diversity from above, and the report is converged
    when the gap is at most GAP_TOL * q(mu).
    """
    z = _similarity(space)
    diag = z.spectrum()
    if diag.verdict == "Indefinite":
        raise IndefiniteForm(
            f"similarity matrix is indefinite (lambda_min={diag.lambda_min:.3g}); "
            "the quadratic form is nonconvex",
            diagnostics=diag,
        )
    z = z.dense(0)  # the verdict's Z where its operator holds it; the operator goes
    return _max_diversity(similarity(space) if z is None else z, diag)


def _max_diversity(z: np.ndarray, diag: SpectrumDiagnostics) -> DiversityReport:
    """`max_diversity`, given Z and its spectrum diagnostics, not Indefinite."""
    from scipy.linalg import solve_triangular
    shift = 0.0
    factor, info = _factor(_plus_ones(z, shift))
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
        del factor  # the failed factor is not live beside the shifted A
        factor, info = _factor(_plus_ones(z, shift))
    if info != 0:
        raise IndefiniteForm(
            f"Z + 11' has no Cholesky factor (lambda_min={diag.lambda_min:.3g})",
            diagnostics=diag,
        )
    # two triangular solves, not potrs, whose bits differ in the last place
    b = solve_triangular(factor, np.ones(z.shape[0]), lower=True, check_finite=False)
    w = solve_triangular(factor, b, lower=True, trans="T", check_finite=False)
    del factor  # no block of the nonnegative solve is live beside it
    iterations = 1
    if w.min() < 0.0:
        w = _pivot(z, w > 0.0, shift)
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


def _plus_ones(z: np.ndarray, shift: float, f=None) -> np.ndarray:
    """A = Z + 11' + shift I, or its principal block A_FF, formed from Z in
    one new array: the bits of (z + 1.0) + shift * np.eye(n)."""
    a = z.copy() if f is None else z[np.ix_(f, f)]
    a += 1.0
    if shift:
        a.flat[:: len(a) + 1] += shift
    return a


def _factor(a: np.ndarray) -> tuple:
    """potrf's lower Cholesky factor of a symmetric C-ordered `a`, made in
    a's place (its transpose is the same matrix in Fortran order), and info."""
    return _lapack()[0](a.T, lower=True, overwrite_a=True)


def _pivot(z: np.ndarray, free: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """min w'Aw - 2 1'w over w >= 0 for a positive definite A = Z + 11' +
    shift I, by block principal pivoting (Judice & Pires 1994; Kim & Park
    2011) from the free set `free`, which it updates in place.

    Each step solves A_FF w_F = 1 with w = 0 off F, then moves every
    infeasible index to the other set: w_i < 0 on F, or y_i < -PIVOT_TOL on
    the rest, where y = Aw - 1.  After BACKUP_EXCHANGES such exchanges
    that do not lower the infeasible count, it moves only the largest
    infeasible index, which makes the steps finite.  The tolerance on y
    keeps roundoff at a degenerate index (w_i = y_i = 0) from moving it to
    and fro.  A_FF and A are each formed from Z when a step needs them and
    dropped after, so no two of them are ever live.
    """
    potrs = _lapack()[1]
    n = z.shape[0]
    fewest, backups = n + 1, BACKUP_EXCHANGES
    for _ in range(NNLS_MAX_ITERS):
        f = np.flatnonzero(free)
        w = np.zeros(n)
        factor, info = _factor(_plus_ones(z, shift, f))
        if info != 0:
            raise NotConverged(f"a principal block of Z + 11' has no Cholesky factor "
                               f"(potrf info {info})")
        w[f] = potrs(factor, np.ones(f.size), lower=True)[0]
        del factor
        infeasible = np.where(free, w < 0.0, _plus_ones(z, shift) @ w - 1.0 < -PIVOT_TOL)
        count = np.count_nonzero(infeasible)
        if count == 0:
            return w
        if count < fewest:
            fewest, backups = count, BACKUP_EXCHANGES
        elif backups > 0:
            backups -= 1
        else:
            infeasible = np.arange(n) == np.flatnonzero(infeasible)[-1]
        free ^= infeasible
    raise NotConverged(f"nonnegative least squares stopped after {NNLS_MAX_ITERS} steps")


def is_positively_weighted(space: FiniteMetricSpace) -> bool:
    """Decide whether magnitude equals maximum diversity.

    The verdict is the sign of the weighting.  The diversity solve
    cross-checks it: its nonnegative branch runs exactly when Z^-1 1 has a
    negative entry, so a negative weighting must have taken it.  The values
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
