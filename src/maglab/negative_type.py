"""Negative type testing and stable positive definiteness classification.

A metric space has negative type exactly when its half-snowflake embeds
isometrically in a Hilbert space, which for a finite space reduces to
positive semidefiniteness of the centered Gram matrix built from the
distances themselves:

    G[i][j] = (d(x0, xi) + d(x0, xj) - d(xi, xj)) / 2

Negative type is equivalent to the space being positive definite at every
scale, which is what the scale scan probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidParams
from .magnitude import _each_scale, _verdict_index
from .metric_core import _BAND, FiniteMetricSpace, _check_indices, _check_scale

DEFAULT_SCAN_SCALES = tuple(2.0**k for k in range(-10, 5))


@dataclass(frozen=True)
class NegativeTypeReport:
    negative_type: bool
    gram_lambda_min: float
    basepoint: int
    witness_vector: Optional[np.ndarray] = None


@dataclass(frozen=True)
class ScanRecord:
    t: float
    lambda_min: float


@dataclass(frozen=True)
class StabilityReport:
    records: list  # ScanRecord per scanned scale
    classification: str  # StablyPositiveDefinite | NotStablyPD | Undetermined
    negative_type: Optional[NegativeTypeReport] = None
    failing_scales: tuple = ()

    def first_failing_scale(self) -> Optional[float]:
        return self.failing_scales[0] if self.failing_scales else None


def negative_type_test(
    space: FiniteMetricSpace, basepoint: int = 0
) -> NegativeTypeReport:
    """Gram PSD test for negative type, with a mean-zero witness on failure."""
    n = len(space)
    _check_indices([basepoint], n, "basepoint")
    d = space.dist
    if n == 1:
        return NegativeTypeReport(True, 0.0, basepoint)
    others = np.delete(np.arange(n), basepoint)
    # halving before the sums keeps every entry finite when distances near
    # the float range would overflow d0_i + d0_j
    h0 = 0.5 * d[basepoint, others]
    # filled by bands of rows, so that no second matrix is ever live
    g = np.empty((n - 1, n - 1))
    for a in range(0, n - 1, _BAND):
        rows = slice(a, a + _BAND)
        np.add(h0[rows, None], h0, out=g[rows])
        g[rows] -= 0.5 * np.delete(d[others[rows]], basepoint, axis=1)
    vals = np.linalg.eigvalsh(g)
    lam_min = float(vals[0])
    if _verdict_index(vals[0], vals[-1]):  # PSD or PD: not Indefinite
        return NegativeTypeReport(True, lam_min, basepoint)
    # Mean-zero vector x with x' D x = -2 u' G u > 0, from the most
    # negative eigenvector u of G; only a failing test needs eigenvectors.
    u = np.linalg.eigh(g)[1][:, 0]
    x = np.zeros(n)
    x[others] = u
    x[basepoint] = -u.sum()
    return NegativeTypeReport(False, lam_min, basepoint, witness_vector=x)


def stability_scan(
    space: FiniteMetricSpace, scales=DEFAULT_SCAN_SCALES
) -> StabilityReport:
    """Classify stable positive definiteness from a scale scan plus Gram test."""
    scales = sorted(float(t) for t in scales)
    if not scales:
        raise InvalidParams("scan scales must be nonempty")
    for t in scales:  # before the Gram test, which runs first in the batch
        _check_scale(t)
    space.dist  # a lazy space builds its dense matrix here, not on a worker
    nt, *found = _each_scale(
        space, scales,
        lambda ts, z, lo, hi, verdicts: list(zip(lo.tolist(), verdicts == 0)),  # 0: Indefinite
        lead=lambda: negative_type_test(space),  # on the pool, beside the blocks
    )
    records = [ScanRecord(t, lam) for t, (lam, _) in zip(scales, found)]
    failing = [t for t, (_, indefinite) in zip(scales, found) if indefinite]
    if failing:
        classification = "NotStablyPD"
    elif nt.negative_type:
        classification = "StablyPositiveDefinite"
    else:
        # A finite scan cannot certify stability by itself; only the Gram
        # test can, and here it declined.
        classification = "Undetermined"
    return StabilityReport(
        records=records,
        classification=classification,
        negative_type=nt,
        failing_scales=tuple(failing),
    )
