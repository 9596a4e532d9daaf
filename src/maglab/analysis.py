"""Net-convergence studies, growth-bound checks, and Fourier-side bounds.

Magnitude of a compact space is approached through finite nets converging
in Hausdorff distance; the growth of t -> |tA| is bracketed below by a
volume ratio and above through a mollifier/Fourier quotient whose key
ingredient is the transform of exp(-|x|^p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import scipy.special

from .errors import (
    InvalidParams,
    NotPositiveDefinite,
    QuadratureDivergence,
)
from .magnitude import (
    _similarities, _verdict_index, magnitude_dimension_estimate, rayleigh, scale_sweep,
    weighting,
)
from .metric_core import (
    FAMILY_TABLE, FiniteMetricSpace, SpaceSpec, _is_integer, _lp_distances, generate,
    lp_product,
)
from .negative_type import StabilityReport, stability_scan

TAIL_TOLERANCE = 1e-9
GROWTH_MARGIN = 0.05  # slack on the volume-ratio lower bound
WITNESS_SCALES = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
WITNESS_MAX_POINTS = 8
_WITNESS_BLOCK = 256  # trials drawn, grouped by size and eigensolved together


@dataclass(frozen=True)
class StudyRecord:
    level: int
    n_points: int
    gap: Optional[float]
    magnitude: Optional[float]
    failure: Optional[str] = None


@dataclass(frozen=True)
class ConvergenceStudy:
    records: list
    extrapolated_limit: Optional[float]
    fit_residual: Optional[float]
    monotone: bool


def chebyshev_interval(length: float) -> Callable[[int], SpaceSpec]:
    """Level n -> spec of the n-point cosine-clustered net of [0, length]."""
    def build(n: int) -> SpaceSpec:
        k = np.arange(n)
        pts = 0.5 * length * (1.0 - np.cos(math.pi * k / max(n - 1, 1)))
        return SpaceSpec("point_cloud_lp", {"points": pts.tolist(), "p": 2.0})
    return build


def _spec_for_level(template, level: int) -> SpaceSpec:
    if callable(template):
        return template(level)
    key = FAMILY_TABLE[template.family][1]
    if key is None:
        raise InvalidParams(
            f"family {template.family!r} has no refinement parameter; "
            "pass a callable template"
        )
    return template.with_params(**{key: level})


def _ambient_gap(coarse: FiniteMetricSpace, fine: FiniteMetricSpace) -> Optional[float]:
    """Hausdorff distance between two nets of one family, in the net metric."""
    if coarse.coords is None or fine.coords is None:
        return None
    spec = fine.provenance
    params = {} if spec is None else spec.params
    cross = _lp_distances(coarse.coords, fine.coords, float(params.get("p", 2.0)))
    gap = max(cross.min(axis=1).max(), cross.min(axis=0).max())
    # monotone distance transforms commute with the sup-inf structure: the
    # sphere's geodesic distance is 2r asin(chord / 2r), whose arccos form
    # would read about 1e-8 for a net against itself
    if spec is not None and spec.family == "sphere_fibonacci_net":
        radius = float(params.get("radius", 1.0))
        gap = 2.0 * radius * math.asin(min(1.0, gap / (2.0 * radius)))
    if spec is not None:
        gap = spec.scale * gap**spec.snowflake
    return float(gap)


def _voronoi_cell_measure(space: FiniteMetricSpace) -> np.ndarray:
    """1-D cell lengths for a quadrature-weighted Rayleigh lower bound."""
    if space.coords is None or space.coords.shape[1] != 1:
        raise InvalidParams("quadrature weighting needs 1-D ambient coordinates")
    x = np.sort(space.coords[:, 0])
    mid = (x[1:] + x[:-1]) / 2.0
    edges = np.concatenate([[x[0]], mid, [x[-1]]])
    return np.diff(edges)


def approx_magnitude(
    template: Union[SpaceSpec, Callable[[int], SpaceSpec]],
    levels,
    quadrature: bool = False,
) -> ConvergenceStudy:
    """Magnitude per refinement level, with a gap-fitted extrapolated limit.

    With ``quadrature`` the recorded value is the cell-measure-weighted
    Rayleigh quotient, a certified lower bound that needs no linear solve.
    """
    levels = sorted(int(k) for k in levels)
    if not levels:
        raise InvalidParams("levels must be nonempty")
    records = []
    finest = generate(_spec_for_level(template, levels[-1]))
    for k in levels:
        space = finest if k == levels[-1] else generate(_spec_for_level(template, k))
        gap = _ambient_gap(space, finest)
        try:
            if quadrature:
                value = rayleigh(space, _voronoi_cell_measure(space))
            else:
                value = weighting(space).magnitude
            records.append(StudyRecord(k, len(space), gap, value))
        except NotPositiveDefinite as exc:
            records.append(
                StudyRecord(k, len(space), gap, None, failure=str(exc))
            )

    good = [r for r in records if r.magnitude is not None]
    mags = [r.magnitude for r in good]
    monotone = all(b >= a - 1e-10 for a, b in zip(mags, mags[1:]))

    limit = None
    residual = None
    fit = [r for r in good if r.gap is not None][-3:]
    if len(fit) >= 2 and any(r.gap > 0 for r in fit):
        # m(k) = m_inf - c * gap(k), solved by least squares over the
        # finest levels where the first-order model is accurate
        g = np.array([r.gap for r in fit])
        m = np.array([r.magnitude for r in fit])
        design = np.stack([np.ones_like(g), -g], axis=1)
        coef, *_ = np.linalg.lstsq(design, m, rcond=None)
        limit = float(coef[0])
        residual = float(np.abs(design @ coef - m).max())
    elif good:
        limit = mags[-1]
        residual = 0.0
    return ConvergenceStudy(
        records=records, extrapolated_limit=limit,
        fit_residual=residual, monotone=monotone,
    )


def lp_ball_volume(n: int, p: float) -> float:
    """Volume of the unit l_p ball in R^n: (2 Gamma(1+1/p))^n / Gamma(1+n/p)."""
    if n < 1 or not p > 0:
        raise InvalidParams("lp_ball_volume needs n >= 1 and p > 0")
    g = scipy.special.gamma
    return float((2.0 * g(1.0 + 1.0 / p)) ** n / g(1.0 + n / p))


def growth_lower_bound(n: int, p: float, alpha: float, vol_a: float, t: float) -> float:
    """Volume-ratio lower bound for |tA| in the snowflaked l_p metric."""
    if n < 1 or not p > 0 or not (0 < alpha <= 1) or not vol_a > 0 or not t >= 0:
        raise InvalidParams("growth_lower_bound parameters out of range")
    beta = alpha * min(1.0, p)
    return float(
        vol_a * t**n / (scipy.special.gamma(n / beta + 1.0) * lp_ball_volume(n, p))
    )


@dataclass(frozen=True)
class BoundCheck:
    t: float
    lower_bound: float
    net_magnitude: float
    satisfied: bool


@dataclass(frozen=True)
class GrowthStudy:
    checks: list
    dimension_slope: Optional[float]
    slope_stderr: Optional[float]


def growth_bound_study(template: SpaceSpec, t_grid) -> GrowthStudy:
    """Check net magnitudes of a scaled unit-cube grid against the lower bound.

    GROWTH_MARGIN absorbs both the stated 5% slack and the net-resolution
    deficit of a finite lattice standing in for the solid cube.
    """
    if template.family != "grid_net":
        raise InvalidParams("growth_bound_study expects a grid_net template")
    n = int(template.params.get("n", 2))
    p = float(template.params.get("p", 2.0))
    alpha = template.snowflake
    space = generate(template)
    sweep = scale_sweep(space, t_grid)
    checks = []
    for rec in sweep.records:
        if rec.magnitude is None:
            continue
        lb = growth_lower_bound(n, p, alpha, 1.0, rec.t)
        checks.append(
            BoundCheck(
                t=rec.t,
                lower_bound=lb,
                net_magnitude=rec.magnitude,
                satisfied=rec.magnitude >= lb * (1.0 - GROWTH_MARGIN),
            )
        )
    slope = stderr = None
    if len(checks) >= 3:
        slope, stderr = magnitude_dimension_estimate(
            sweep, (checks[0].t, checks[-1].t)
        )
    return GrowthStudy(checks=checks, dimension_slope=slope, slope_stderr=stderr)


@dataclass(frozen=True)
class FourierReport:
    p: float
    grid: np.ndarray
    values: np.ndarray
    positive: bool
    radially_decreasing: bool
    fitted_c: float
    tail_estimate: float


def _cosine_transform(f: np.ndarray, x: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """2 * integral f(x) cos(2 pi x w) dx by the trapezoid rule, at every w.

    ``x`` and ``omegas`` are uniform grids with any start.  The trapezoid
    sum for all frequencies is one chirp-z (Bluestein) evaluation: with
    x_j = x_0 + j dx and w_k = w_0 + k dw, the identity
    2jk = j^2 + k^2 - (k - j)^2 turns sum_j g_j exp(-2 pi i x_j w_k) into a
    convolution with the chirp exp(i pi dx dw n^2), done by FFT in
    O((N + M) log(N + M)) instead of O(N M).
    """
    n, m = len(x), len(omegas)
    dx = (x[-1] - x[0]) / max(n - 1, 1)
    dw = (omegas[-1] - omegas[0]) / max(m - 1, 1)
    g = f * dx
    g[0] *= 0.5
    g[-1] *= 0.5
    # squares are exact in float64 below 2^53; powers of one complex
    # ratio would compound rounding error along the chirp
    sq = np.arange(max(n, m), dtype=float) ** 2
    chirp = np.exp(-1j * math.pi * (dx * dw) * sq)
    size = 1 << (n + m - 2).bit_length()
    u = np.zeros(size, dtype=complex)
    u[:n] = g * np.exp(-2j * math.pi * omegas[0] * dx * np.arange(n)) * chirp[:n]
    v = np.zeros(size, dtype=complex)
    v[:m] = chirp[:m].conj()
    v[size - n + 1 :] = chirp[n - 1 : 0 : -1].conj()
    conv = np.fft.ifft(np.fft.fft(u) * np.fft.fft(v))[:m]
    return 2.0 * (np.exp(-2j * math.pi * x[0] * omegas) * chirp[:m] * conv).real


def _stable_density_tail(p: float, length: float) -> float:
    """Exact truncation error integral_L^inf exp(-x^p) dx."""
    inv = 1.0 / p
    return float(
        scipy.special.gamma(inv) * scipy.special.gammaincc(inv, length**p) / p
    )


def gamma_hat_1d(
    p: float, L: float = 40.0, N: int = 2**16, omega_max: float = 10.0,
    n_omega: int = 401,
) -> FourierReport:
    """Sampled transform of exp(-|x|^p) on |w| <= omega_max.

    Uses the convention f_hat(w) = integral f(x) exp(-2 pi i x w) dx; the
    integrand is even, so this is a cosine transform.
    """
    if not (0 < p <= 2):
        raise InvalidParams("gamma_hat_1d needs 0 < p <= 2")
    if not (L > 0 and N >= 1 and n_omega >= 2 and omega_max > 0):
        raise InvalidParams(
            "gamma_hat_1d needs L > 0, N >= 1, n_omega >= 2 and omega_max > 0"
        )
    tail = _stable_density_tail(p, L)
    if tail > TAIL_TOLERANCE:
        raise QuadratureDivergence(
            f"truncation tail {tail:.3g} exceeds tolerance; raise L"
        )
    x = np.linspace(0.0, L, N + 1)
    f = np.exp(-(x**p))
    omegas = np.linspace(0.0, omega_max, n_omega)
    values = _cosine_transform(f, x, omegas)
    positive = bool(values.min() > 0.0)
    dec_tol = 1e-7 * float(values.max())
    decreasing = bool(np.all(np.diff(values) <= dec_tol))
    fitted_c = float((values * (1.0 + omegas) ** (1.0 + p)).min()) if positive else 0.0
    return FourierReport(
        p=p, grid=omegas, values=values, positive=positive,
        radially_decreasing=decreasing, fitted_c=fitted_c, tail_estimate=tail,
    )


@dataclass(frozen=True)
class FourierUpperBound:
    bound: float
    error_estimate: float
    argmax_omega: float


def fourier_upper_bound_1d(
    length: float, p: float, alpha: float, mollifier_radius: float,
    omega_max: float = 20.0, n_omega: int = 2001, L: float = 40.0,
    N: int = 2**16,
) -> FourierUpperBound:
    """Mollifier-quotient upper bound for the magnitude of a 1-D interval.

    Builds a smooth plateau function equal to 1 on [-length, length] (an
    indicator convolved with a normalized bump), and returns the grid
    supremum of its transform divided by the transform of the interval's
    metric kernel exp(-|x|^r), r = alpha * min(1, p).  ``L`` and ``N`` set
    the quadrature of that kernel transform, as in ``gamma_hat_1d``; r < 1
    needs a larger L than the default.
    """
    if not (0 < p <= 2) or not (0 < alpha <= 1):
        raise InvalidParams("need 0 < p <= 2 and 0 < alpha <= 1")
    if not mollifier_radius > length:
        raise InvalidParams("mollifier_radius must exceed the interval length")
    if length < 0:
        raise InvalidParams("length must be nonnegative")
    r = alpha * min(1.0, p)
    width = mollifier_radius - length
    half = mollifier_radius  # indicator half-width so the plateau covers A - A

    # the kernel transform first: it validates the frequency grid both share
    gamma = gamma_hat_1d(r, L=L, N=N, omega_max=omega_max, n_omega=n_omega)
    omegas = gamma.grid

    # normalized bump transform by quadrature on its support
    xb = np.linspace(-1.0, 1.0, 4097)[1:-1]
    bump = np.exp(1.0 / (xb**2 - 1.0))
    bump_mass = float(np.trapezoid(bump, xb))
    bump_hat = 0.5 * _cosine_transform(bump, width * xb, omegas) / (
        width * bump_mass
    )

    with np.errstate(invalid="ignore"):
        indicator_hat = np.where(
            omegas == 0.0,
            2.0 * half,
            np.sin(2.0 * math.pi * half * omegas) / (math.pi * omegas),
        )
    psi_hat = indicator_hat * bump_hat
    ratio = psi_hat / gamma.values
    idx = int(np.argmax(ratio))
    # quadrature error: tail truncation of the denominator, relative
    err = float(ratio[idx]) * gamma.tail_estimate / float(gamma.values[idx])
    return FourierUpperBound(
        bound=float(ratio[idx]), error_estimate=err, argmax_omega=float(omegas[idx])
    )


def product_counterexample_experiment() -> StabilityReport:
    """The 25-point l_2 product of {0, +-e1, +-e2} in l_1^2 with itself.

    Scanning small scales exhibits negative eigenvalues, so the product is
    not stably positive definite even though each factor is.
    """
    cross = SpaceSpec(
        "point_cloud_lp",
        {"points": [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]], "p": 1.0},
    )
    factor = generate(cross)
    product = lp_product(factor, factor, q=2.0)
    scales = [2.0**-k for k in range(0, 13)]
    return stability_scan(product, scales)


@dataclass(frozen=True)
class WitnessSearchResult:
    found: bool
    subsets_tested: int
    scales_tested: int
    witness_points: Optional[list] = None
    witness_scale: Optional[float] = None
    witness_lambda_min: Optional[float] = None
    witness_seed_index: Optional[int] = None


def witness_search(p: float, n: int, budget: int, seed: int = 0) -> WitnessSearchResult:
    """Seeded random search for a non-PD finite subset of l_p^n.

    Each trial draws 3 to WITNESS_MAX_POINTS points and checks Z(tX) at
    every t in WITNESS_SCALES.  Absence of a witness is a valid (and for
    p <= 2, the expected) result.  Trials are drawn in blocks of
    _WITNESS_BLOCK, in the same order as one at a time; the trials of a
    block that share a size get one distance call and one stacked eigvalsh,
    and the first witness by trial, then by scale, is returned.
    """
    if budget < 0:
        raise InvalidParams("budget must be nonnegative")
    if n < 1:
        raise InvalidParams("n must be at least 1")
    if not p > 0:
        raise InvalidParams(f"witness search needs p > 0, got {p}")
    if not (_is_integer(seed) and seed >= 0):
        raise InvalidParams(f"seed must be a nonnegative integer, got {seed!r}")
    p = float(p)
    rng = np.random.default_rng(seed)
    for start in range(0, budget, _WITNESS_BLOCK):
        trials = []
        for _ in range(min(_WITNESS_BLOCK, budget - start)):
            size = int(rng.integers(3, WITNESS_MAX_POINTS + 1))
            trials.append(rng.uniform(-1.0, 1.0, size=(size, n)))
        hits = []  # (trial, scale, lambda_min): each size's first witness
        for size in set(map(len, trials)):
            index = [i for i, pts in enumerate(trials) if len(pts) == size]
            pts = np.stack([trials[i] for i in index])
            # (scale, trial, size, size) -> (trial, scale) spectra
            vals = np.linalg.eigvalsh(
                _similarities(_lp_distances(pts, pts, p), WITNESS_SCALES)
            ).swapaxes(0, 1)
            indefinite = _verdict_index(vals[..., 0], vals[..., -1]) == 0  # Indefinite
            if indefinite.any():
                j, k = np.argwhere(indefinite)[0]
                hits.append((index[j], int(k), float(vals[j, k, 0])))
        if hits:
            trial, k, lambda_min = min(hits)
            return WitnessSearchResult(
                found=True,
                subsets_tested=start + trial + 1,
                scales_tested=len(WITNESS_SCALES),
                witness_points=trials[trial].tolist(),
                witness_scale=WITNESS_SCALES[k],
                witness_lambda_min=lambda_min,
                witness_seed_index=start + trial,
            )
    return WitnessSearchResult(
        found=False, subsets_tested=budget, scales_tested=len(WITNESS_SCALES)
    )
