"""Independent reference answers for the benchmark's output checks.

Nothing here imports maglab: every reference is recomputed with numpy and
scipy from the generated inputs or from a closed form, so a defect in the
program cannot hide in its own oracle.  Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special

PD = "PositiveDefinite"


def lp_distances(points, p: float) -> np.ndarray:
    """Pairwise ||x - y||_p (p may be inf) for an (n, dim) array."""
    pts = np.asarray(points, dtype=float)
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    if math.isinf(p):
        return diff.max(axis=2)
    return (diff**p).sum(axis=2) ** (1.0 / p)


def fibonacci_sphere_geodesic(n: int, radius: float = 1.0) -> np.ndarray:
    """Geodesic distances of the n-point Fibonacci net on a sphere."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    phi = (i - 0.5) * math.pi * (3.0 - math.sqrt(5.0))
    rho = np.sqrt(1.0 - z**2)
    pts = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    d = radius * np.arccos(np.clip(pts @ pts.T, -1.0, 1.0))
    np.fill_diagonal(d, 0.0)  # arccos of a rounded unit dot product is not 0
    return d


def cantor_points(level: int, length: float = 1.0) -> np.ndarray:
    """Endpoints of the 2^(level-1) intervals of the Cantor construction."""
    pts = [0.0, 1.0]
    for _ in range(level - 1):
        pts = [x / 3.0 for x in pts] + [2.0 / 3.0 + x / 3.0 for x in pts]
    return np.sort(np.array(pts)) * length


def line_magnitude(points) -> float:
    """Closed form for a finite subset of the real line: 1 + sum tanh(gap / 2)."""
    gaps = np.diff(np.sort(np.asarray(points, dtype=float)))
    return float(1.0 + np.tanh(gaps / 2.0).sum())


def reference_weighting(dist: np.ndarray) -> np.ndarray:
    """Weighting from an LU solve of exp(-d) w = 1."""
    z = np.exp(-np.asarray(dist, dtype=float))
    return np.linalg.solve(z, np.ones(z.shape[0]))


def lambda_min(dist: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(np.exp(-np.asarray(dist, dtype=float)))[0])


def worst_triangle_violation(dist: np.ndarray) -> float:
    """max over all triples of d(i,j) - d(i,k) - d(k,j), by broadcasting."""
    d = np.asarray(dist, dtype=float)
    return float((d[:, :, None] - d[:, None, :] - d.T[None, :, :]).max())


def gamma_hat_closed_form(p: float, omega: np.ndarray):
    """Transform of exp(-|x|^p) where it has a closed form (p = 1, 2)."""
    if p == 1.0:
        return 2.0 / (1.0 + 4.0 * math.pi**2 * omega**2)
    if p == 2.0:
        return math.sqrt(math.pi) * np.exp(-(math.pi**2) * omega**2)
    return None


def gamma_hat_at_zero(p: float) -> float:
    """Integral of exp(-|x|^p) over the line: 2 Gamma(1 + 1/p)."""
    return float(2.0 * scipy.special.gamma(1.0 + 1.0 / p))


def rel_close(value, reference, rel: float) -> bool:
    return abs(value - reference) <= rel * abs(reference)


# ---- checks on parsed --json reports ------------------------------------


def check_field(report: dict, key: str, expected) -> list:
    if report.get(key) != expected:
        return [f"{key} is {report.get(key)!r}, expected {expected!r}"]
    return []


def check_upper_bound(report: dict, ell: float) -> list:
    """A magnitude upper bound for [0, ell] cannot be below |[0, ell]| = 1 + ell/2."""
    if not report["bound"] >= 1.0 + ell / 2.0:
        return [f"upper bound {report['bound']!r} below 1 + ell/2 = {1.0 + ell / 2.0}"]
    return []


def check_magnitude(report: dict, weights_ref: np.ndarray) -> list:
    ref = float(weights_ref.sum())
    if not rel_close(report["magnitude"], ref, 1e-9):
        return [f"magnitude {report['magnitude']!r} != reference {ref!r} (rel 1e-9)"]
    return []


def check_diversity(report: dict, weights_ref: np.ndarray) -> list:
    mag = float(weights_ref.sum())
    div = report["diversity"]
    problems = []
    if not div <= report["upper_bound"]:
        problems.append(f"diversity {div!r} above its upper bound {report['upper_bound']!r}")
    if not div <= mag * (1.0 + 1e-9):
        problems.append(f"diversity {div!r} above magnitude {mag!r}")
    positively_weighted = weights_ref.min() >= -1e-10 * np.abs(weights_ref).max()
    if positively_weighted and not rel_close(div, mag, 1e-8):
        problems.append(f"positively weighted, but diversity {div!r} != magnitude {mag!r}")
    return problems


def check_validate(report: dict, dist: np.ndarray, worst: float | None = None) -> list:
    """A metric must validate cleanly; a broken one must report its exact excess."""
    if worst is None:
        slack = 1e-9 * max(1.0, float(np.abs(dist).max()))
        if report["ok"] and report["worst_triangle_violation"] <= slack:
            return []
        return [f"valid metric rejected: {report}"]
    problems = []
    if report["ok"] or not report["offending_triples"]:
        problems.append("triangle violation not reported")
    if abs(report["worst_triangle_violation"] - worst) > 1e-12 * max(1.0, worst):
        problems.append(
            f"worst violation {report['worst_triangle_violation']!r} != {worst!r}"
        )
    return problems


def check_l1_square_sweep(report: dict) -> list:
    """Unit-square l1 grid: PD everywhere, nondecreasing, below (1 + t/2)^2."""
    recs = report["records"]
    problems = [f"t={r['t']:.6g} is {r['verdict']}" for r in recs if r["verdict"] != PD]
    if problems:
        return problems
    mags = [r["magnitude"] for r in recs]
    if any(b < a for a, b in zip(mags, mags[1:])):
        problems.append(f"magnitude not nondecreasing in t: {mags}")
    for r in recs:
        if r["magnitude"] > (1.0 + r["t"] / 2.0) ** 2:
            problems.append(f"t={r['t']:.6g}: magnitude above (1 + t/2)^2")
    return problems


def check_sphere_sweep(report: dict, dist: np.ndarray) -> list:
    """PD at every scale; the largest scale matches an LU reference."""
    recs = report["records"]
    problems = [f"t={r['t']:.6g} is {r['verdict']}" for r in recs if r["verdict"] != PD]
    if problems:
        return problems
    last = recs[-1]
    ref = float(reference_weighting(last["t"] * dist).sum())
    if not rel_close(last["magnitude"], ref, 1e-9):
        problems.append(f"t={last['t']:.6g}: magnitude {last['magnitude']!r} != {ref!r}")
    return problems


def check_line_study(report: dict, points_by_level: dict, limit=None) -> list:
    """Every level matches the closed form on the line; optional limit to 1e-3."""
    problems = []
    for r in report["records"]:
        ref = line_magnitude(points_by_level[r["level"]])
        if r["magnitude"] is None or not rel_close(r["magnitude"], ref, 1e-9):
            problems.append(f"level {r['level']}: {r['magnitude']!r} != {ref!r}")
    if not report["monotone"]:
        problems.append("nested nets reported non-monotone")
    if limit is not None and abs(report["extrapolated_limit"] - limit) > 1e-3:
        problems.append(f"limit {report['extrapolated_limit']!r} != {limit} (1e-3)")
    return problems


def check_gamma_hat(report: dict) -> list:
    """Closed forms for p = 1, 2; otherwise the stable-law shape and mass."""
    p = report["p"]
    omega = np.asarray(report["grid"])
    values = np.asarray(report["values"])
    exact = gamma_hat_closed_form(p, omega)
    if exact is not None:
        err = float(np.abs(values - exact).max())
        return [] if err <= 1e-6 else [f"p={p}: max error {err:.3g} > 1e-6"]
    problems = []
    if not (report["positive"] and report["radially_decreasing"] and report["fitted_c"] > 0):
        problems.append(f"p={p}: transform not positive and radially decreasing")
    mass = gamma_hat_at_zero(p)
    if not rel_close(values[0], mass, 1e-3):
        problems.append(f"p={p}: value at 0 is {values[0]!r}, not {mass!r}")
    return problems


def check_witness(report: dict, p: float, expect_found: bool, budget: int) -> list:
    """No witness in l_p^n for p <= 2; a recomputed negative lambda_min otherwise."""
    if report["found"] != expect_found:
        return [f"found={report['found']}, expected {expect_found}"]
    if not expect_found:
        if report["subsets_tested"] != budget:
            return [f"tested {report['subsets_tested']} of {budget} subsets"]
        return []
    d = report["witness_scale"] * lp_distances(report["witness_points"], p)
    lam = lambda_min(d)
    if not lam < 0:
        return [f"witness recomputes to lambda_min {lam!r} >= 0"]
    return []


def check_k32_threshold(report: dict) -> list:
    """The first PD scale of K_{3,2} lies within one grid step above log sqrt 2."""
    ts = [r["t"] for r in report["records"]]
    first = next((r["t"] for r in report["records"] if r["verdict"] == PD), None)
    step = ts[1] - ts[0]
    threshold = math.log(math.sqrt(2.0))
    if first is None or not threshold <= first < threshold + step:
        return [f"first PD scale {first!r}, expected in [{threshold:.6g}, +{step:.3g})"]
    return []
