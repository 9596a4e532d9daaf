"""Validated finite metric spaces, metric transforms, and space generators.

Distances are stored as dense symmetric numpy arrays at full double
precision.  All values are immutable after construction and all operations
are pure functions.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    EmptySubset,
    ExponentOutOfRange,
    InvalidMetric,
    InvalidParams,
    NonFiniteEntry,
    NonpositiveScale,
    NonSquareMatrix,
    UnsupportedFamily,
)

TRIANGLE_SLACK = 1e-9  # relative to the largest distance entry
_MIN_PLUS_BLOCK = 128  # k rows per block of the min-plus square


def _json_default(obj):
    """json.dumps's hook: a dataclass becomes the dict of its fields, in
    field order, and an array or a numpy scalar its Python value."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SpaceSpec:
    """Declarative recipe for a generated metric space.

    The same spec (including seed) always regenerates a bit-identical
    distance matrix.
    """

    family: str
    params: dict = field(default_factory=dict)
    scale: float = 1.0
    snowflake: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # a null seed means the default, so a spec never draws fresh entropy
        if self.seed is None:
            object.__setattr__(self, "seed", 0)
        elif not _is_integer(self.seed):
            raise InvalidParams(f"seed must be an integer, got {self.seed!r}")
        if self.family not in FAMILY_TABLE:
            raise UnsupportedFamily(f"unknown family {self.family!r}")
        if not isinstance(self.params, dict):
            raise TypeError("params must be an object")
        _check_scale(self.scale)
        if not (0 < self.snowflake <= 1):
            raise InvalidParams("snowflake exponent must lie in (0, 1]")

    def with_params(self, **overrides) -> "SpaceSpec":
        return dataclasses.replace(self, params={**self.params, **overrides})

    def to_json(self) -> str:
        return json.dumps(self, default=_json_default)

    @staticmethod
    def from_json(text: str) -> "SpaceSpec":
        obj = json.loads(text)
        optional = [f.name for f in dataclasses.fields(SpaceSpec)[1:]]
        return SpaceSpec(obj["family"], **{k: obj[k] for k in optional if k in obj})


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite metric space: point labels plus a symmetric distance matrix.

    ``coords`` carries ambient coordinates when the generating family has a
    natural embedding (intervals, Cantor sets, grids, spheres, point clouds).
    The magnitude, diversity and negative type engines read only ``dist``;
    the net-convergence study reads ``coords`` for each level's Hausdorff
    gap and for its 1-D quadrature cells.
    """

    labels: tuple
    dist: np.ndarray
    provenance: Optional[SpaceSpec] = None
    coords: Optional[np.ndarray] = None

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise NonSquareMatrix(f"distance matrix has shape {d.shape}")
        if d.shape[0] != len(self.labels):
            raise InvalidParams("label count does not match matrix side")
        if d.shape[0] < 1:
            raise InvalidParams("a metric space needs at least one point")
        # canonical symmetrization: copy the upper triangle to the lower
        d = np.triu(d, 1)
        d = d + d.T
        if not np.all(np.isfinite(d)):
            raise NonFiniteEntry("distance matrix contains non-finite entries")
        object.__setattr__(self, "dist", _readonly(d))
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.coords is not None:
            object.__setattr__(self, "coords", _readonly(np.atleast_2d(self.coords)))

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    def subspace(self, indices: Sequence[int]) -> "FiniteMetricSpace":
        idx = list(indices)
        if not idx:
            raise EmptySubset("subspace needs at least one point")
        coords = self.coords[idx] if self.coords is not None else None
        return FiniteMetricSpace(
            labels=tuple(self.labels[i] for i in idx),
            dist=self.dist[np.ix_(idx, idx)],
            coords=coords,
        )


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    worst_triangle_violation: float
    worst_asymmetry: float
    offending_triples: list


def _min_plus_upper(d: np.ndarray) -> np.ndarray:
    """min_k fl(d[i, k] + d[k, j]) for j >= i; inf below the diagonal.

    Row i takes k in blocks of _MIN_PLUS_BLOCK, so each block's sums fit
    in a buffer that stays in cache.
    """
    n = d.shape[0]
    m = np.full((n, n), np.inf)
    buf = np.empty((min(n, _MIN_PLUS_BLOCK), n))
    for i in range(n):
        row = m[i, i:]
        for k0 in range(0, n, _MIN_PLUS_BLOCK):
            k1 = min(k0 + _MIN_PLUS_BLOCK, n)
            sums = buf[: k1 - k0, : n - i]
            np.add(d[i, k0:k1, None], d[k0:k1, i:], out=sums)
            np.minimum(row, sums.min(axis=0), out=row)
    return m


def _min_plus_square(d: np.ndarray) -> np.ndarray:
    """M[i, j] = min_k fl(d[i, k] + d[k, j]), the min-plus square of d."""
    upper = _min_plus_upper(np.ascontiguousarray(d))
    # M(d)[j, i] = M(d.T)[i, j], and a symmetric d gives a symmetric M
    if np.array_equal(d, d.T):
        lower = upper
    else:
        lower = _min_plus_upper(np.ascontiguousarray(d.T))
    return np.minimum(upper, lower.T)


def validate_metric(dist) -> ValidationReport:
    """Check the metric axioms on a square matrix, within declared slacks.

    The worst triangle excess is max over (i, j, k) of
    fl(d_ij - fl(d_ik + d_kj)).  Subtraction rounds monotonically, so for
    each pair the max over k is exactly fl(d_ij - M_ij), with M the min-plus
    square.  The offending triples are, for the first ten k in ascending
    order whose worst excess passes the slack, that excess's first (i, j)
    in C order.
    """
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise NonSquareMatrix(f"matrix has shape {d.shape}")
    n = d.shape[0]
    if n < 1:
        raise InvalidParams("a metric space needs at least one point")
    if not np.all(np.isfinite(d)):
        raise NonFiniteEntry("distance matrix contains non-finite entries")

    worst_asym = float(np.abs(d - d.T).max())
    diag_bad = float(np.abs(np.diag(d)).max())
    off_diagonal = ~np.eye(n, dtype=bool)
    nonpos_off = bool(np.min(d, where=off_diagonal, initial=np.inf) <= 0)

    slack = TRIANGLE_SLACK * max(1.0, float(np.abs(d).max()))
    excess = d - _min_plus_square(d)
    worst_tri = max(0.0, float(excess.max()))
    offending = []
    if worst_tri > slack:
        # a k whose worst excess passes the slack passes it only on pairs
        # whose excess does; their rows and columns, ascending, keep the C
        # order that breaks ties in argmax
        over = excess > slack
        rows, cols = np.flatnonzero(over.any(axis=1)), np.flatnonzero(over.any(axis=0))
        sub = d[np.ix_(rows, cols)]
        for k in range(n):
            e = sub - (d[rows, k, None] + d[k, cols])
            a, b = np.unravel_index(np.argmax(e), e.shape)
            if e[a, b] > slack:
                offending.append((int(rows[a]), int(cols[b]), k))
                if len(offending) == 10:
                    break

    ok = (
        worst_asym <= slack
        and diag_bad == 0.0
        and not nonpos_off
        and worst_tri <= slack
    )
    return ValidationReport(
        ok=ok,
        worst_triangle_violation=worst_tri,
        worst_asymmetry=worst_asym,
        offending_triples=offending,
    )


def _lp_distances(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """d(x,y) = ||x - y||_p^min(1,p) for x in a, y in b; p may be inf.

    Leading axes broadcast: (..., k, dim) and (..., m, dim) give (..., k, m).
    """
    diff = np.abs(a[..., :, None, :] - b[..., None, :, :])
    if math.isinf(p):
        return diff.max(axis=-1)
    if p >= 1:
        return (diff**p).sum(axis=-1) ** (1.0 / p)
    return (diff**p).sum(axis=-1)


def _is_integer(value) -> bool:
    """An int or a numpy integer; a bool is neither a count nor a seed."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _count(params: dict, key: str, default: Optional[int] = None) -> int:
    value = params[key] if default is None else params.get(key, default)
    if not _is_integer(value):
        raise InvalidParams(f"parameter {key} must be an integer, got {value!r}")
    return int(value)


def _require(cond: bool, msg: str):
    if not cond:
        raise InvalidParams(msg)


def _gen_interval(params, seed):
    length = float(params.get("length", 1.0))
    n = _count(params, "n")
    _require(length > 0 and n >= 1, "interval_net needs length > 0 and n >= 1")
    x = np.linspace(0.0, length, n)[:, None]
    return _lp_distances(x, x, 1.0), x


def _gen_circle(params, seed):
    circumference = float(params.get("circumference", 2 * math.pi))
    n = _count(params, "n")
    _require(circumference > 0 and n >= 1, "circle_net needs circumference > 0, n >= 1")
    k = np.arange(n)
    frac = np.abs(k[:, None] - k[None, :]) / n
    frac = np.minimum(frac, 1.0 - frac)
    return circumference * frac, None


def _gen_cantor(params, seed):
    length = float(params.get("length", 1.0))
    level = _count(params, "level")
    _require(length > 0 and level >= 1, "cantor_net needs length > 0 and level >= 1")
    pts = np.array([0.0, 1.0])
    for _ in range(level - 1):
        pts = np.concatenate([pts / 3.0, 2.0 / 3.0 + pts / 3.0])
    x = np.sort(pts)[:, None] * length
    return _lp_distances(x, x, 1.0), x


def _gen_grid(params, seed):
    n = _count(params, "n", 2)
    p = float(params.get("p", 2.0))
    m = _count(params, "m")
    _require(n >= 1 and m >= 1 and p > 0, "grid_net needs n,m >= 1 and p > 0")
    axis = np.linspace(0.0, 1.0, m)
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    return _lp_distances(pts, pts, p), pts


def _gen_sphere(params, seed):
    radius = float(params.get("radius", 1.0))
    n = _count(params, "n")
    _require(radius > 0 and n >= 1, "sphere_fibonacci_net needs radius > 0, n >= 1")
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    rho = np.sqrt(np.maximum(0.0, 1.0 - z**2))
    pts = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    cosang = np.clip(pts @ pts.T, -1.0, 1.0)
    return radius * np.arccos(cosang), radius * pts


def _gen_hyperbolic(params, seed):
    r_max = float(params.get("r_max", 1.0))
    n_r = _count(params, "n_r", 3)
    n_theta = _count(params, "n_theta", 6)
    _require(r_max > 0 and n_r >= 1 and n_theta >= 1, "hyperbolic_disk_net params out of range")
    # the centre, then n_theta equally spaced angles on each of n_r rings
    rings = r_max * np.arange(1, n_r + 1) / n_r
    angles = 2 * math.pi * np.arange(n_theta) / n_theta
    r = np.concatenate([[0.0], np.repeat(rings, n_theta)])
    th = np.concatenate([[0.0], np.tile(angles, n_r)])
    cosh_d = (
        np.cosh(r)[:, None] * np.cosh(r)[None, :]
        - np.sinh(r)[:, None] * np.sinh(r)[None, :] * np.cos(th[:, None] - th[None, :])
    )
    return np.arccosh(np.maximum(1.0, cosh_d)), None


def _gen_bipartite(params, seed):
    m = _count(params, "m")
    n = _count(params, "n")
    r = float(params.get("r", 1.0))
    _require(m >= 1 and n >= 1 and r > 0, "complete_bipartite needs m,n >= 1 and r > 0")
    side = np.array([0] * m + [1] * n)
    cross = side[:, None] != side[None, :]
    return np.where(cross, r, 2.0 * r), None


def _gen_ultrametric(params, seed):
    n = _count(params, "n")
    _require(n >= 1, "ultrametric_tree needs n >= 1")
    rng = np.random.default_rng(seed)
    d = np.zeros((n, n))
    clusters = [[i] for i in range(n)]
    height = 0.0
    while len(clusters) > 1:
        height += float(rng.uniform(0.1, 1.0))  # strictly increasing merge heights
        i, j = sorted(rng.choice(len(clusters), size=2, replace=False))
        d[np.ix_(clusters[i], clusters[j])] = 2.0 * height
        d[np.ix_(clusters[j], clusters[i])] = 2.0 * height
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]
    return d, None


def _gen_weighted_tree(params, seed):
    n = _count(params, "n")
    _require(n >= 1, "weighted_tree needs n >= 1")
    rng = np.random.default_rng(seed)
    d = np.zeros((n, n))
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        w = float(rng.uniform(0.5, 2.0))
        # d[parent, parent] + w is exactly w
        d[i, :i] = d[:i, i] = d[parent, :i] + w
    return d, None


def _gen_point_cloud(params, seed):
    pts = np.asarray(params["points"], dtype=float)
    p = float(params.get("p", 2.0))
    _require(p > 0, "point_cloud_lp needs p > 0")
    if pts.ndim == 1:
        pts = pts[:, None]
    _require(pts.ndim == 2 and len(pts) >= 1, "point_cloud_lp needs at least one point")
    return _lp_distances(pts, pts, p), pts


# family name -> (generator, the parameter a refinement level substitutes);
# every generator maps (params, seed) to (distances, coordinates or None)
FAMILY_TABLE = {
    "interval_net": (_gen_interval, "n"),
    "circle_net": (_gen_circle, "n"),
    "cantor_net": (_gen_cantor, "level"),
    "grid_net": (_gen_grid, "m"),
    "sphere_fibonacci_net": (_gen_sphere, "n"),
    "hyperbolic_disk_net": (_gen_hyperbolic, "n_r"),
    "complete_bipartite": (_gen_bipartite, None),
    "ultrametric_tree": (_gen_ultrametric, "n"),
    "weighted_tree": (_gen_weighted_tree, "n"),
    "point_cloud_lp": (_gen_point_cloud, None),
}


def generate(spec: SpaceSpec) -> FiniteMetricSpace:
    """Build the space described by ``spec``, then apply snowflake and scale.

    The returned metric is d' = scale * d_base**snowflake.  A parameter or
    seed the family cannot read raises InvalidParams, and a distance that
    overflows or is NaN raises NonFiniteEntry instead of a numpy warning.
    """
    with np.errstate(all="ignore"):
        try:
            base, coords = FAMILY_TABLE[spec.family][0](spec.params, spec.seed)
        except KeyError as exc:
            raise InvalidParams(f"{spec.family} needs parameter {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InvalidParams(f"{spec.family}: {exc}") from exc
        d = base if spec.snowflake == 1.0 else base**spec.snowflake
        d = d if spec.scale == 1.0 else spec.scale * d
    labels = tuple(range(d.shape[0]))
    return FiniteMetricSpace(labels=labels, dist=d, provenance=spec, coords=coords)


def random_cloud_spec(
    n: int, dim: int, p: float = 2.0, seed: int = 0, box: float = 1.0
) -> SpaceSpec:
    """A point_cloud_lp spec with seeded uniform coordinates in [0, box]^dim."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, box, size=(n, dim))
    return SpaceSpec("point_cloud_lp", {"points": pts.tolist(), "p": p}, seed=seed)


def _check_scale(t: float) -> None:
    if not t > 0:
        raise NonpositiveScale(f"scale must be positive, got {t}")


def scale_space(space: FiniteMetricSpace, t: float) -> FiniteMetricSpace:
    """Multiply every distance by t > 0."""
    _check_scale(t)
    return FiniteMetricSpace(space.labels, t * space.dist)


def snowflake_space(space: FiniteMetricSpace, alpha: float) -> FiniteMetricSpace:
    """Raise every distance to the power alpha in (0, 1]."""
    if not (0 < alpha <= 1):
        raise ExponentOutOfRange(
            f"snowflake exponent must lie in (0, 1], got {alpha}"
        )
    return FiniteMetricSpace(space.labels, space.dist**alpha)


def lp_product(
    a: FiniteMetricSpace, b: FiniteMetricSpace, q: float
) -> FiniteMetricSpace:
    """The l_q product: d((a,b),(a',b')) = (d_A^q + d_B^q)^(1/q)."""
    if not q >= 1:
        raise ExponentOutOfRange(f"product exponent must be >= 1, got {q}")
    da, db = a.dist, b.dist
    if math.isinf(q):
        d = np.maximum(da[:, None, :, None], db[None, :, None, :])
    else:
        d = (da[:, None, :, None] ** q + db[None, :, None, :] ** q) ** (1.0 / q)
    n = len(a) * len(b)
    d = d.reshape(n, n)
    labels = tuple((la, lb) for la in a.labels for lb in b.labels)
    return FiniteMetricSpace(labels=labels, dist=d)


def hausdorff_distance(i_set, j_set, space: FiniteMetricSpace) -> float:
    """Hausdorff distance between two index subsets of a common space."""
    i_idx = list(i_set)
    j_idx = list(j_set)
    if not i_idx or not j_idx:
        raise EmptySubset("Hausdorff distance needs nonempty subsets")
    sub = space.dist[np.ix_(i_idx, j_idx)]
    return float(max(sub.min(axis=1).max(), sub.min(axis=0).max()))


def read_distance_csv(path) -> np.ndarray:
    """Read a headerless CSV matrix; ValueError on a non-numeric cell, ragged
    rows or a file with no data."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt's "no data" notice
        d = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    if d.size == 0:
        raise ValueError("file contains no data")
    return d


def load_distance_csv(path, force: bool = False) -> FiniteMetricSpace:
    """Load a headerless n x n CSV distance matrix, validating the axioms."""
    d = read_distance_csv(path)
    report = validate_metric(d)
    if not report.ok and not force:
        raise InvalidMetric(
            f"{path}: metric axioms violated "
            f"(worst triangle {report.worst_triangle_violation:.3g}, "
            f"worst asymmetry {report.worst_asymmetry:.3g})"
        )
    return FiniteMetricSpace(labels=tuple(range(d.shape[0])), dist=d)
