"""Net-convergence studies, growth-bound checks, and Fourier-side bounds.

Magnitude of a compact space is approached through finite nets converging
in Hausdorff distance; the growth of t -> |tA| is bracketed below by a
volume ratio and above through a mollifier/Fourier quotient whose key
ingredient is the transform of exp(-|x|^p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateQuadraticForm, InvalidParams, NonFiniteEntry, NotPositiveDefinite,
    QuadratureDivergence,
)
from .magnitude import (
    _similarities, _verdict_index, magnitude_dimension_estimate, psd_tolerance, rayleigh,
    scale_sweep, weighting,
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
_CHIRP_FFT = 2**13  # the chirp-z FFT length, but for short grids and M > 4,096
_SCREEN_SHIFT = psd_tolerance(1.0) / 2  # half the least verdict band


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


def _ambient_gap(coarse: FiniteMetricSpace, fine: FiniteMetricSpace) -> Optional[float]:
    """Hausdorff distance between two nets of one family, in the net metric."""
    if coarse.coords is None or fine.coords is None:
        return None
    spec = fine.provenance
    gap = FAMILY_TABLE[spec.family].gap(spec.params, coarse.coords, fine.coords)
    return float(spec.scale * gap**spec.snowflake)


def _voronoi_cell_measure(space: FiniteMetricSpace) -> np.ndarray:
    """1-D cell lengths for a quadrature-weighted Rayleigh lower bound."""
    if space.coords is None or space.coords.shape[1] != 1:
        raise InvalidParams("quadrature weighting needs 1-D ambient coordinates")
    x = np.sort(space.coords[:, 0])
    mid = (x[1:] + x[:-1]) / 2.0
    edges = np.concatenate([[x[0]], mid, [x[-1]]])
    return np.diff(edges)


def approx_magnitude(
    template: SpaceSpec, levels, quadrature: bool = False
) -> ConvergenceStudy:
    """Magnitude per refinement level, with a gap-fitted extrapolated limit.

    With ``quadrature`` the recorded value is the cell-measure-weighted
    Rayleigh quotient, a certified lower bound that needs no linear solve.
    """
    levels = sorted(int(k) for k in levels)
    if not levels or len(set(levels)) < len(levels):
        raise InvalidParams(f"levels must be nonempty and distinct, got {levels}")
    key = FAMILY_TABLE[template.family].refine
    if key is None:
        raise InvalidParams(f"family {template.family!r} has no refinement parameter")
    records = []
    finest = generate(template.with_params(**{key: levels[-1]}))
    for k in levels:
        space = finest if k == levels[-1] else generate(template.with_params(**{key: k}))
        gap = _ambient_gap(space, finest)
        try:
            if quadrature:
                value = rayleigh(space, _voronoi_cell_measure(space))
            else:
                value = weighting(space).magnitude
            records.append(StudyRecord(k, len(space), gap, value))
        except (NotPositiveDefinite, DegenerateQuadraticForm) as exc:
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
        # finest levels where the first-order model is accurate.  lstsq's
        # rcond cutoff drops the intercept m_inf once the gap column dwarfs
        # the ones column, so gaps from 1 up are divided, exactly, by the
        # largest one's power of two; that rescales c alone
        g = np.array([r.gap for r in fit])
        g = np.ldexp(g, -max(0, math.frexp(g.max())[1]))
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
    from scipy.special import gamma as g
    return float((2.0 * g(1.0 + 1.0 / p)) ** n / g(1.0 + n / p))


def growth_lower_bound(n: int, p: float, alpha: float, vol_a: float, t: float) -> float:
    """Volume-ratio lower bound for |tA| in the snowflaked l_p metric."""
    if n < 1 or not p > 0 or not (0 < alpha <= 1) or not vol_a > 0 or not t >= 0:
        raise InvalidParams("growth_lower_bound parameters out of range")
    from scipy.special import gamma
    beta = alpha * min(1.0, p)
    return float(vol_a * t**n / (gamma(n / beta + 1.0) * lp_ball_volume(n, p)))


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
    cube = FAMILY_TABLE[template.family].cube
    if cube is None:
        raise InvalidParams("growth_bound_study expects a grid_net template")
    space = generate(template)  # validates the template's parameters
    n, p = cube(template.params)
    alpha = template.snowflake
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


def _chirp_z(samples, n: int, x0: float, dx: float, omegas: np.ndarray) -> np.ndarray:
    """2 * integral f(x) cos(2 pi x w) dx by the trapezoid rule on the n
    points x_j = x0 + j dx, at every w of the uniform grid ``omegas``, where
    samples(j0, j1) returns a new float array of f(x_j) for j0 <= j < j1.

    With w_k = w_0 + k dw, the trapezoid sum sum_j g_j exp(-2 pi i x_j w_k)
    is a chirp-z (Bluestein) evaluation: 2jk = j^2 + k^2 - (k - j)^2 makes
    it a convolution with the chirp exp(i pi dx dw n^2), taken overlap-add in
    the fewest blocks, of lengths differing by at most one, whose convolutions
    fit one FFT length S, the least power of two >= min(n + M - 1,
    max(_CHIRP_FFT, 2M)).  Block j0 <= j < j1 is convolved in place in two
    complex buffers of length S, the other holding the conjugate chirp's FFT,
    taken once, and its M outputs, shifted by exp(-2 pi i (x0 + j0 dx) w_k),
    are added into one M-vector: the memory held depends on M, not on n.
    """
    m = len(omegas)
    size = 1 << (min(n + m - 1, max(_CHIRP_FFT, 2 * m)) - 1).bit_length()
    blocks = -(-n // (size - m + 1))
    width = -(-n // blocks)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dw = (omegas[-1] - omegas[0]) / max(m - 1, 1)
        # the chirp, its conjugate at both ends of v; squares are exact in
        # float64 below 2^53, where powers of one complex ratio would
        # compound rounding error along the chirp
        chirp = np.arange(max(width, m), dtype=float)
        chirp *= chirp
        chirp = np.exp(-1j * math.pi * (dx * dw) * chirp)
        v = np.zeros(size, dtype=complex)
        np.conjugate(chirp[:m], out=v[:m])
        np.conjugate(chirp[width - 1 : 0 : -1], out=v[size - width + 1 :])
        np.fft.fft(v, out=v)
        lead = chirp[:width]
        if omegas[0]:
            lead = lead * np.exp(-2j * math.pi * omegas[0] * dx * np.arange(width))
        u = np.empty(size, dtype=complex)
        out = np.zeros(m)
        for i in range(blocks):
            j0, j1 = i * n // blocks, (i + 1) * n // blocks
            g = samples(j0, j1)
            g *= dx
            if j0 == 0:
                g[0] *= 0.5
            if j1 == n:
                g[-1] *= 0.5
            # a power of two, exact, brings the largest sample to [1/2, 1):
            # a block of subnormal samples would convolve at a sixth the speed
            e = math.frexp(float(np.abs(g).max()))[1]
            np.ldexp(g, -e, out=g)
            np.multiply(g, lead[: len(g)], out=u[: len(g)])
            u[len(g) :] = 0.0
            np.fft.fft(u, out=u)
            u *= v
            np.fft.ifft(u, out=u)
            shift = np.exp(-2j * math.pi * (x0 + j0 * dx) * omegas)
            shift *= chirp[:m]
            shift *= u[:m]
            out += np.ldexp(shift.real, e)
        out *= 2.0
    if not np.isfinite(out).all():
        raise NonFiniteEntry("cosine transform overflowed: grid spacing too large")
    return out


def _cosine_transform(f: np.ndarray, x: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """`_chirp_z` of the samples f on the uniform grid x."""
    n = len(x)
    with np.errstate(over="ignore", invalid="ignore"):
        dx = (x[-1] - x[0]) / max(n - 1, 1)
    return _chirp_z(lambda j0, j1: np.array(f[j0:j1], dtype=float), n, x[0], dx, omegas)


def _linspace_part(L: float, N: int, j0: int, j1: int) -> np.ndarray:
    """np.linspace(0, L, N + 1)[j0:j1] bit for bit, with no other entry made:
    linspace takes j * (L / N), and L itself last."""
    x = np.arange(j0, j1, dtype=float)
    x *= L / N
    if j1 == N + 1:
        x[-1] = L
    return x


def _stable_density_tail(p: float, length: float) -> float:
    """Exact truncation error integral_L^inf exp(-x^p) dx."""
    from scipy.special import gamma, gammaincc
    inv = 1.0 / p
    with np.errstate(over="ignore"):  # L^p = inf leaves no tail
        power = np.float64(length) ** p
    return float(gamma(inv) * gammaincc(inv, power) / p)


def gamma_hat_1d(
    p: float, L: float = 40.0, N: int = 2**16, omega_max: float = 10.0,
    n_omega: int = 401,
) -> FourierReport:
    """Sampled transform of exp(-|x|^p) on |w| <= omega_max.

    Uses the convention f_hat(w) = integral f(x) exp(-2 pi i x w) dx; the
    integrand is even, so this is a cosine transform.  The N + 1 samples on
    [0, L] resolve frequencies up to N / (2L); a larger omega_max raises
    InvalidParams.
    """
    if not (0 < p <= 2):
        raise InvalidParams("gamma_hat_1d needs 0 < p <= 2")
    if not (0 < L < math.inf and 0 < omega_max < math.inf):
        raise InvalidParams("gamma_hat_1d needs finite L > 0 and omega_max > 0")
    if not (_is_integer(N) and N >= 1):
        raise InvalidParams(f"N must be an integer at least 1, got {N!r}")
    if not (_is_integer(n_omega) and n_omega >= 2):
        raise InvalidParams(f"n_omega must be an integer at least 2, got {n_omega!r}")
    tail = _stable_density_tail(p, L)
    if tail > TAIL_TOLERANCE:
        raise QuadratureDivergence(
            f"truncation tail {tail:.3g} exceeds tolerance; raise L"
        )
    # the sampled transform has period N / L in w, so past N / (2L) it aliases
    if omega_max > 0.5 * N / L:
        raise InvalidParams(
            f"omega_max {omega_max:g} exceeds the grid's Nyquist frequency "
            f"N / (2L) = {0.5 * N / L:.3g}; raise N or lower L"
        )

    def samples(j0: int, j1: int) -> np.ndarray:
        f = _linspace_part(L, N, j0, j1)
        with np.errstate(over="ignore"):  # exp(-inf) is 0
            f **= p
        np.negative(f, out=f)
        return np.exp(f, out=f)

    omegas = np.linspace(0.0, omega_max, n_omega)
    values = _chirp_z(samples, N + 1, 0.0, L / N, omegas)
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
    needs a larger L than the default.  A quotient largest at omega_max is
    refused with QuadratureDivergence: the grid does not show its supremum.
    """
    if not (0 < p <= 2) or not (0 < alpha <= 1):
        raise InvalidParams("need 0 < p <= 2 and 0 < alpha <= 1")
    if not length < mollifier_radius < math.inf:
        raise InvalidParams("need length < mollifier_radius < inf")
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
    if idx == len(omegas) - 1:
        raise QuadratureDivergence(
            f"the quotient is largest at the grid's last frequency {omegas[idx]:g}, "
            "so the grid does not show its supremum"
        )
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


def _first_indefinite(z: np.ndarray) -> Optional[tuple]:
    """(trial, scale index, lambda_min) of the first Indefinite Z, by trial
    then scale, in a (scale, trial, m, m) similarity stack, or None.

    A unit diagonal makes each verdict band tau at least 2 sigma, sigma =
    _SCREEN_SHIFT; if every Z + sigma I has a Cholesky factor, eigvalsh would
    give each lambda_min >= -sigma - O(m^2 eps) > -tau, so none is computed."""
    try:
        np.linalg.cholesky(z + _SCREEN_SHIFT * np.eye(z.shape[-1]))
    except np.linalg.LinAlgError:
        vals = np.linalg.eigvalsh(z).swapaxes(0, 1)  # (trial, scale, m)
        hits = np.argwhere(_verdict_index(vals[..., 0], vals[..., -1]) == 0)  # Indefinite
        if len(hits):
            j, k = hits[0]
            return int(j), int(k), float(vals[j, k, 0])
    return None


def witness_search(p: float, n: int, budget: int, seed: int = 0) -> WitnessSearchResult:
    """Seeded random search for a non-PD finite subset of l_p^n.

    Each trial draws 3 to WITNESS_MAX_POINTS points and checks Z(tX) at
    every t in WITNESS_SCALES.  Absence of a witness is a valid (and for
    p <= 2, the expected) result.  Trials are drawn in blocks of
    _WITNESS_BLOCK, in the same order as one at a time; the trials of a
    block that share a size get one distance call and one stacked screen
    (`_first_indefinite`), and the first witness by trial, then scale, wins.
    """
    if not (_is_integer(budget) and budget >= 0):
        raise InvalidParams(f"budget must be a nonnegative integer, got {budget!r}")
    if not (_is_integer(n) and n >= 1):
        raise InvalidParams(f"n must be an integer at least 1, got {n!r}")
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
            dist = _lp_distances(pts, pts, p)
            hit = _first_indefinite(_similarities(dist, WITNESS_SCALES))
            if hit is not None:
                hits.append((index[hit[0]], *hit[1:]))
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
