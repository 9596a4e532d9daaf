"""Validated finite metric spaces, metric transforms, and space generators.

Distances are dense symmetric numpy arrays at full double precision.  A
space that is an l_1 sum of factor metrics stores only its factors, and a
generated set of distinct points on the line only its sorted gaps; each
builds its dense matrix on first read.  All values are immutable after
construction and all operations are pure functions.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import math
import numbers
import os
import threading
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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
_MIN_PLUS_TILE = 2**17  # sums per tile of the min-plus square: 1 MiB of temporary
_BAND = 64  # rows per band of the n x n builds and passes that keep no second matrix

logger = logging.getLogger("maglab")


@functools.cache
def _as_dict(cls) -> Optional[Callable]:
    """For a dataclass type, a function giving a new dict of an instance's
    fields in order, one dict display made once per type; None for any other
    type.  Reading the instance's own `__dict__` would make CPython build one
    that the instance keeps, 61 bytes a record; a comprehension over the
    names costs 1 ms more per 4,000 records."""
    if not dataclasses.is_dataclass(cls):
        return None
    items = ", ".join(f"{f.name!r}: obj.{f.name}" for f in dataclasses.fields(cls))
    return eval(f"lambda obj: {{{items}}}")  # field names are identifiers


def _json_default(obj):
    """json.dumps's hook: a dataclass becomes a new dict of its fields, in
    field order, and an array or a numpy scalar its Python value."""
    as_dict = _as_dict(type(obj))
    if as_dict is not None:
        return as_dict(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _labels(labels) -> Sequence:
    """A range kept as it is (n labels in O(1) memory), anything else a tuple."""
    return labels if isinstance(labels, range) else tuple(labels)


class _Own:
    """A distance matrix made for the one space it is given to, writable,
    float and C-ordered: the space symmetrizes it in place and keeps it,
    where it copies any other array."""

    def __init__(self, array: np.ndarray):
        self.array = array


def _symmetrized(d: np.ndarray, in_place: bool = False) -> np.ndarray:
    """The upper triangle of d copied to the lower, read-only; NonFiniteEntry
    on a non-finite entry of the upper triangle.

    The bits of np.triu(d, 1) + np.triu(d, 1).T, built in one copy of d, or
    in d itself, by bands of rows, so that no second n x n array is ever live.
    """
    out = d if in_place else np.array(d, dtype=float, order="C")
    out += 0.0  # -0.0 becomes +0.0, as in the sum with the zero triangle
    for a in range(0, len(out), _BAND):
        b = a + _BAND
        out[a:b, :a] = out[:a, a:b].T
        diag = np.triu(out[a:b, a:b], 1)
        out[a:b, a:b] = diag + diag.T
        if not np.isfinite(out[a:b]).all():
            raise NonFiniteEntry("distance matrix contains non-finite entries")
    out.setflags(write=False)
    return out


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
        for key in ("scale", "snowflake"):
            if isinstance(getattr(self, key), bool):
                raise InvalidParams(f"{key} must be a number, got {getattr(self, key)!r}")
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
class _Structure:
    """What a structured space keeps in place of its distance matrix: the
    arrays its similarity operator reads, and `build`, a partial of a
    module-level function that gives the dense matrix.

    An l_1 sum keeps its factors' distance matrices in ``factors``, first
    factor slowest in the point order, so that Z(tX) is the Kronecker
    product of the factors' Z.  Distinct points of the line keep ``order``,
    the permutation that sorts them, and ``gaps``, the distances between
    consecutive sorted points, on which Z(tX) alone depends.
    """

    build: Callable[[], np.ndarray]
    factors: tuple = ()
    order: Optional[np.ndarray] = None
    gaps: Optional[np.ndarray] = None

    def dense(self, n: int) -> np.ndarray:
        """The dense matrix of the space's n points, read-only: the one place
        that builds it, logged as a debug event on the "maglab" logger."""
        logger.debug(
            "%s space of %d points: building its dense %d x %d distance matrix",
            "factored" if self.factors else "line", n, n, n,
        )
        return _symmetrized(self.build(), in_place=True)


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """A finite metric space: point labels plus a symmetric distance matrix.

    ``labels`` is a tuple, or a range for the default labels 0, ..., n - 1
    that `generate` and `load_distance_csv` give.  ``coords`` carries
    ambient coordinates when the generating family has a natural
    embedding (intervals, Cantor sets, grids, spheres, point clouds);
    the net-convergence study reads them for each level's Hausdorff gap and
    for its 1-D quadrature cells.  Identity decides equality and hashing,
    as it does for any object: two spaces of the same bits are not equal.

    ``structure`` is None except for an l_1 sum (from `generate` or
    `lp_product`) and distinct points of the line (from `generate`), which
    are made with ``dist=None``.  Their spectra, weightings, magnitudes and
    Rayleigh quotients read only the structure, as do the sweeps and scans
    of an l_1 sum.  The first read of ``dist`` builds it and caches it
    read-only; threads that read it first at once may each build it, with
    the same bits.  A structured space given a matrix, as
    `dataclasses.replace` gives it, checks it against a fresh build and
    raises InvalidParams if any bit differs.
    """

    labels: Sequence
    dist: Optional[np.ndarray] = field(repr=False)
    provenance: Optional[SpaceSpec] = None
    coords: Optional[np.ndarray] = None
    structure: Optional[_Structure] = field(default=None, repr=False)

    def __post_init__(self):
        if self.dist is None and self.structure is not None:
            object.__delattr__(self, "dist")  # built on its first read, below the class
        else:
            own = isinstance(self.dist, _Own)
            d = self.dist.array if own else np.asarray(self.dist, dtype=float)
            if d.ndim != 2 or d.shape[0] != d.shape[1]:
                raise NonSquareMatrix(f"distance matrix has shape {d.shape}")
            if d.shape[0] != len(self.labels):
                raise InvalidParams("label count does not match matrix side")
            if d.shape[0] < 1:
                raise InvalidParams("a metric space needs at least one point")
            # canonical symmetrization: copy the upper triangle to the lower
            d = _symmetrized(d, in_place=own)
            if self.structure is not None and not np.array_equal(d, self.structure.dense(len(d))):
                raise InvalidParams("distance matrix differs from the one its structure builds")
            object.__setattr__(self, "dist", d)
        object.__setattr__(self, "labels", _labels(self.labels))
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
        _check_indices(idx, len(self), distinct=True)
        return FiniteMetricSpace(
            labels=tuple(self.labels[i] for i in idx),
            dist=_Own(self.dist[np.ix_(idx, idx)]),
            coords=None if self.coords is None else self.coords[idx],
        )


# set after @dataclass, which must see `dist` as a plain field: a space made with
# a structure and dist=None has none, and its first read builds and caches it
FiniteMetricSpace.dist = functools.cached_property(lambda space: space.structure.dense(len(space)))
FiniteMetricSpace.dist.__set_name__(FiniteMetricSpace, "dist")


def _l1_sum(
    labels: Sequence, factors: tuple, build: Callable[[], np.ndarray],
    provenance: Optional[SpaceSpec] = None, coords: Optional[np.ndarray] = None,
) -> FiniteMetricSpace:
    """The l_1 sum of `factors`, whose dense matrix `build` gives."""
    # the largest distance is the sum of the factors' largest, added in
    # order, so an overflow raises here, as a dense build would
    peak = 0.0
    for f in factors:
        peak += float(f.max())
    if not math.isfinite(peak):
        raise NonFiniteEntry("distance matrix contains non-finite entries")
    return FiniteMetricSpace(labels, None, provenance, coords, _Structure(build, factors))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    worst_triangle_violation: float
    worst_asymmetry: float
    offending_triples: list


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _pool(threads: int):
    """The threads that help the calling thread through `_each`'s items,
    one per further CPU, each started on first use."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(threads, thread_name_prefix="maglab")


# a forked child has none of its parent's threads, so it starts its own pool
os.register_at_fork(after_in_child=_pool.cache_clear)


def _each(
    task: Callable, items: Sequence, scratch: Callable = lambda: None, cpus_per_task: int = 1
) -> list:
    """[task(x, s) for x in items], where each worker's s = scratch() is
    made by the calling thread before any task starts.

    A task keeps `cpus_per_task` CPUs busy, so there are as many workers
    as such shares of the CPUs, and at most one per item.  Runs inline
    when that leaves one worker; otherwise the calling thread and the
    pool's threads each take the next item until none is left, all under
    the calling thread's `np.geterr()`.  After an error no further item is
    handed out, and once the started items finish, the error of the first
    failed item in order is raised: the one a loop would raise.
    """
    workers = min(_cpus() // cpus_per_task, len(items))
    if workers <= 1:
        own = scratch()
        return [task(x, own) for x in items]
    results, failed = [None] * len(items), {}
    todo, lock = list(reversed(range(len(items)))), threading.Lock()
    err = np.geterr()  # errstate is per thread, so each worker sets the caller's

    def drain(own):
        with np.errstate(**err):
            while True:
                with lock:
                    if not todo:
                        return
                    i = todo.pop()
                try:
                    results[i] = task(items[i], own)
                except BaseException as exc:  # raised below, in item order
                    with lock:
                        failed[i] = exc
                        todo.clear()
                    return

    owns = [scratch() for _ in range(workers)]
    helpers = [_pool(_cpus() - 1).submit(drain, own) for own in owns[1:]]
    try:
        drain(owns[0])
    finally:
        with lock:  # after an interrupt in the calling thread, hand out no more items
            todo.clear()
        for helper in helpers:
            helper.result()
    if failed:
        raise failed[min(failed)]
    return results


def _min_plus_square(d: np.ndarray) -> np.ndarray:
    """M[i, j] = min_k fl(d[i, k] + d[k, j]), the min-plus square of d.

    M is built in square tiles of side b, each summing rows of d against
    rows of e = d^T along the contiguous k axis, so that one tile's
    b * b * n sums stay in cache.  The tiles of one row block form a band,
    and the bands run on every CPU the process may use (`_each`):
    each tile of M is written by one band, and a minimum is exact in any
    order, so M is the same whatever the number of threads.
    """
    n = d.shape[0]
    symmetric = np.array_equal(d, d.T)
    d = np.ascontiguousarray(d)
    e = d if symmetric else np.ascontiguousarray(d.T)
    b = max(1, math.isqrt(_MIN_PLUS_TILE // n))
    m = np.empty((n, n))

    def band(i, _):
        rows = slice(i, i + b)
        for j in range(i if symmetric else 0, n, b):  # a symmetric d gives a symmetric M
            cols = slice(j, j + b)
            m[rows, cols] = (d[rows, None, :] + e[None, cols, :]).min(axis=2)

    # an overflowed sum is +inf, never the minimum that shows a violation
    with np.errstate(over="ignore"):
        _each(band, range(0, n, b))
    if symmetric:  # M is too: its upper tiles mirrored, by bands of rows
        for i in range(b, n, b):
            m[i : i + b, :i] = m[:i, i : i + b].T
    return m


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

    worst_asym, nonpos_off = 0.0, False
    for a in range(0, n, _BAND):  # by bands of rows, with no second n x n array
        rows = d[a : a + _BAND]
        with np.errstate(over="ignore"):  # an overflowed difference is +inf, which fails
            worst_asym = max(worst_asym, float(np.abs(rows - d[:, a : a + _BAND].T).max()))
        nonpos = rows <= 0
        k = np.arange(len(rows))
        nonpos[k, a + k] = False  # the diagonal
        nonpos_off = nonpos_off or bool(nonpos.any())
    diag_bad = float(np.abs(np.diag(d)).max())

    slack = TRIANGLE_SLACK * max(1.0, float(d.max()), -float(d.min()))
    excess = _min_plus_square(d)
    np.subtract(d, excess, out=excess)
    worst_tri = max(0.0, float(excess.max()))
    offending = []
    if worst_tri > slack:
        # a k whose worst excess passes the slack passes it only on pairs
        # whose excess does; their rows and columns, ascending, keep the C
        # order that breaks ties in argmax
        over = excess > slack
        rows, cols = np.flatnonzero(over.any(axis=1)), np.flatnonzero(over.any(axis=0))
        sub = d[np.ix_(rows, cols)]
        with np.errstate(over="ignore"):  # an overflowed sum is no violation
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


def _lp_sum(factor: Callable[[int], np.ndarray], k: int, shape: tuple, p: float) -> np.ndarray:
    """||(f_0, ..., f_{k-1})||_p^min(1,p) entrywise, p possibly inf, for fresh
    arrays f_c = factor(c) >= 0 that broadcast to `shape`; this may overwrite them.
    Powers are summed one factor at a time (a running maximum at p = inf), and
    an entry whose power sum lost its norm is redone from its factors divided
    by their largest: the bits of the stacked (v**p).sum(axis=-1)**(1/p) up to
    7 factors, as numpy sums 8 or more pairwise."""
    d = np.zeros(shape)
    if math.isinf(p):
        for c in range(k):
            np.maximum(d, factor(c), out=d)
        return d
    flushed = False  # whether a positive entry of a factor has a power of 0
    with np.errstate(over="ignore", under="ignore"):
        for c in range(k):
            f = factor(c)
            positive = np.count_nonzero(f)
            f **= p
            flushed |= np.count_nonzero(f) < positive
            d += f
            del f  # freed before the next factor is made
        redo = np.flatnonzero(~((d >= np.finfo(float).tiny) & (d < np.inf)))
        if not flushed:  # a sum of exact zeros is 0 as it stands
            redo = redo[d.flat[redo] != 0]
        if p >= 1:
            d **= 1.0 / p
        if redo.size:
            w = np.stack([np.broadcast_to(factor(c), shape).flat[redo] for c in range(k)], axis=-1)
            m = w.max(axis=-1, keepdims=True)
            r = (np.divide(w, m, out=np.zeros_like(w), where=m > 0) ** p).sum(axis=-1)
            d.flat[redo] = m[:, 0] * r ** (1.0 / p) if p >= 1 else m[:, 0] ** p * r
    return d


def _coord(a: np.ndarray, b: np.ndarray, c: int) -> np.ndarray:
    """|x_c - y_c| for x in a, y in b, in one array."""
    f = a[..., :, None, c] - b[..., None, :, c]
    return np.abs(f, out=f)


def _lp_distances(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """d(x,y) = ||x - y||_p^min(1,p) for x in a, y in b, p possibly inf; leading
    axes broadcast: (..., k, dim) and (..., m, dim) give (..., k, m)."""
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-2])
    return _lp_sum(functools.partial(_coord, a, b), a.shape[-1], shape, p)


def _is_integer(value) -> bool:
    """An int or a numpy integer; a bool is neither a count nor a seed."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _count(params: dict, key: str, default: Optional[int] = None) -> int:
    value = params[key] if default is None else params.get(key, default)
    if not _is_integer(value):
        raise InvalidParams(f"parameter {key} must be an integer, got {value!r}")
    return int(value)


def _real(params: dict, key: str, default: float) -> float:
    value = params.get(key, default)
    if isinstance(value, bool):
        raise InvalidParams(f"parameter {key} must be a number, got {value!r}")
    return float(value)


def _check_indices(idx: list, n: int, name: str = "index", distinct: bool = False) -> None:
    """InvalidParams unless each index is an integer in range(n), distinct if asked."""
    for i in idx:
        if not (_is_integer(i) and 0 <= i < n):
            raise InvalidParams(f"{name} must be an integer in [0, {n}), got {i!r}")
    if distinct and len(set(idx)) < len(idx):
        raise InvalidParams("indices must be distinct")


def _require(cond: bool, msg: str):
    if not cond:
        raise InvalidParams(msg)


def _dense(spec: SpaceSpec, base: np.ndarray, coords=None) -> FiniteMetricSpace:
    """The space of the family's distances `base`, a float array made for it,
    at the spec's scale and snowflake, which are applied in `base` itself."""
    base **= spec.snowflake  # numpy's scalar-power fast paths, as in base**snowflake
    base *= spec.scale
    return FiniteMetricSpace(range(len(base)), _Own(base), spec, coords)


def _points(spec: SpaceSpec, x: np.ndarray, p: float) -> FiniteMetricSpace:
    """The points x in l_p: a line space if they are distinct points of one
    coordinate at snowflake 1 and p >= 1, where d(x, y) = |x - y|, else dense."""
    if spec.snowflake == 1.0 and x.shape[1] == 1 and p >= 1:
        order = np.argsort(x[:, 0], kind="stable")
        order.setflags(write=False)
        # the kernel's own arithmetic: each gap has the bits of its dist entry
        gaps = spec.scale * _lp_distances(x[order[1:], None], x[order[:-1], None], p)[:, 0, 0]
        if np.all(gaps > 0):  # repeated points (and NaN) stay dense
            # the largest distance, from first to last; the others are no larger
            if not np.isfinite(spec.scale * _lp_distances(x[order[-1:]], x[order[:1]], p)[0, 0]):
                raise NonFiniteEntry("distance matrix contains non-finite entries")
            build = functools.partial(_lp_dist, functools.partial(_coord, x, x), (len(x),), p,
                                      spec.scale)
            return FiniteMetricSpace(range(len(x)), None, spec, x,
                                     _Structure(build, order=order, gaps=_readonly(gaps)))
    return _dense(spec, _lp_distances(x, x, p), x)


def _by_offset(v: np.ndarray) -> np.ndarray:
    """The read-only n x n view of v, of length n, whose (i, j) entry is
    v[|i - j|], read forward in j from one vector of length 2n - 1."""
    n = len(v)
    return np.lib.stride_tricks.sliding_window_view(np.concatenate([v[:0:-1], v]), n)[::-1]


def _gen_interval(spec):
    length = _real(spec.params, "length", 1.0)
    n = _count(spec.params, "n")
    _require(length > 0 and n >= 1, "interval_net needs length > 0 and n >= 1")
    return _points(spec, np.linspace(0.0, length, n)[:, None], 1.0)


def _gen_interval_chebyshev(spec):
    length = _real(spec.params, "length", 1.0)
    n = _count(spec.params, "n")
    _require(length > 0 and n >= 1, "interval_chebyshev_net needs length > 0, n >= 1")
    x = 0.5 * length * (1.0 - np.cos(math.pi * np.arange(n) / max(n - 1, 1)))
    return _points(spec, x[:, None], 2.0)


def _gen_circle(spec):
    circumference = _real(spec.params, "circumference", 2 * math.pi)
    n = _count(spec.params, "n")
    _require(circumference > 0 and n >= 1, "circle_net needs circumference > 0, n >= 1")
    frac = np.arange(n) / n
    # the arc of each offset |i - j|, copied into the one array kept
    return _dense(spec, np.array(_by_offset(circumference * np.minimum(frac, 1.0 - frac))))


def _gen_cantor(spec):
    length = _real(spec.params, "length", 1.0)
    level = _count(spec.params, "level")
    _require(length > 0 and level >= 1, "cantor_net needs length > 0 and level >= 1")
    pts = np.array([0.0, 1.0])
    for _ in range(level - 1):
        pts = np.concatenate([pts / 3.0, 2.0 / 3.0 + pts / 3.0])
    return _points(spec, np.sort(pts)[:, None] * length, 1.0)


def _grid_cube(params: dict) -> tuple:
    """(n, p) of the unit cube of l_p^n whose lattices grid_net's nets are."""
    return _count(params, "n", 2), _real(params, "p", 2.0)


def _gen_grid(spec):
    """n copies of the axis linspace(0, 1, m) in l_p: one axis is its points, more
    the l_p sum of n copies of the axis metric |i - j| / (m - 1), from integer
    offsets, so exactly symmetric under reversal, at p = 1 and snowflake 1 an l_1 sum."""
    n, p = _grid_cube(spec.params)
    m = _count(spec.params, "m")
    _require(n >= 1 and m >= 1 and p > 0, "grid_net needs n,m >= 1 and p > 0")
    axis = np.linspace(0.0, 1.0, m)
    if n == 1:
        return _points(spec, axis[:, None], p)
    coords = np.stack([g.ravel() for g in np.meshgrid(*([axis] * n), indexing="ij")], axis=1)
    k = np.arange(m)
    metric = FiniteMetricSpace(range(m), np.abs(k[:, None] - k) / max(m - 1, 1))
    build = functools.partial(_lp_dist, functools.partial(_axis, (metric,) * n), (m,) * n, p)
    if p != 1.0 or spec.snowflake != 1.0:
        return _dense(spec, build(), coords)
    factors = (_readonly(spec.scale * metric.dist),) * n
    return _l1_sum(range(len(coords)), factors, functools.partial(build, spec.scale), spec, coords)


def _gen_sphere(spec):
    radius = _real(spec.params, "radius", 1.0)
    n = _count(spec.params, "n")
    _require(radius > 0 and n >= 1, "sphere_fibonacci_net needs radius > 0, n >= 1")
    i = np.arange(n)
    z = (n - 1 - 2 * i) / n  # exactly odd under the half-turn i -> n - 1 - i
    rho = np.sqrt(np.maximum(0.0, 1.0 - z**2))
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    # cos angle = z_i z_j + rho_i rho_j cos((i - j) g), built in place on and
    # above the diagonal by bands of rows, which `_dense` mirrors, the cosines
    # read by offset |i - j|: exactly symmetric, and invariant under the half-turn
    turns = np.cos(phi)
    window = _by_offset(turns)
    d = np.zeros((n, n))
    for a in range(0, n, _BAND):
        rows = slice(a, a + _BAND)
        cos = d[rows, a:]
        np.multiply.outer(rho[rows], rho[a:], out=cos)
        cos *= window[rows, a:]
        cos += np.multiply.outer(z[rows], z[a:])
        np.clip(cos, -1.0, 1.0, out=cos)
        np.arccos(cos, out=cos)
        cos *= radius
    return _dense(spec, d, radius * np.stack([rho * turns, rho * np.sin(phi), z], axis=1))


def _gen_hyperbolic(spec):
    r_max = _real(spec.params, "r_max", 1.0)
    n_r = _count(spec.params, "n_r", 3)
    n_theta = _count(spec.params, "n_theta", 6)
    _require(r_max > 0 and n_r >= 1 and n_theta >= 1, "hyperbolic_disk_net params out of range")
    # the centre, then n_theta equally spaced angles on each of n_r rings
    rings = r_max * np.arange(1, n_r + 1) / n_r
    angles = 2 * math.pi * np.arange(n_theta) / n_theta
    r = np.concatenate([[0.0], np.repeat(rings, n_theta)])
    th = np.concatenate([[0.0], np.tile(angles, n_r)])
    ch, sh = np.cosh(r), np.sinh(r)
    # cosh d = cosh r_i cosh r_j - sinh r_i sinh r_j cos(th_i - th_j), built in
    # place on and above the diagonal by bands of rows, which `_dense` mirrors
    d = np.zeros((len(r), len(r)))
    for a in range(0, len(r), _BAND):
        rows = slice(a, a + _BAND)
        band = d[rows, a:]
        np.subtract.outer(th[rows], th[a:], out=band)
        np.cos(band, out=band)
        band *= np.multiply.outer(sh[rows], sh[a:])
        np.subtract(np.multiply.outer(ch[rows], ch[a:]), band, out=band)
        np.maximum(band, 1.0, out=band)
        np.arccosh(band, out=band)
    return _dense(spec, d)


def _gen_bipartite(spec):
    m = _count(spec.params, "m")
    n = _count(spec.params, "n")
    r = _real(spec.params, "r", 1.0)
    _require(m >= 1 and n >= 1 and r > 0, "complete_bipartite needs m,n >= 1 and r > 0")
    side = np.array([0] * m + [1] * n)
    cross = side[:, None] != side[None, :]
    return _dense(spec, np.where(cross, r, 2.0 * r))


def _gen_ultrametric(spec):
    n = _count(spec.params, "n")
    _require(n >= 1, "ultrametric_tree needs n >= 1")
    rng = np.random.default_rng(spec.seed)
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
    return _dense(spec, d)


def _gen_weighted_tree(spec):
    n = _count(spec.params, "n")
    _require(n >= 1, "weighted_tree needs n >= 1")
    rng = np.random.default_rng(spec.seed)
    d = np.zeros((n, n))
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        w = float(rng.uniform(0.5, 2.0))
        # d[parent, parent] + w is exactly w
        d[i, :i] = d[:i, i] = d[parent, :i] + w
    return _dense(spec, d)


def _gen_point_cloud(spec):
    pts = np.asarray(spec.params["points"], dtype=float)
    p = _real(spec.params, "p", 2.0)
    _require(p > 0, "point_cloud_lp needs p > 0")
    if pts.ndim == 1:
        pts = pts[:, None]
    _require(pts.ndim == 2 and len(pts) >= 1, "point_cloud_lp needs at least one point")
    _require(pts.shape[1] >= 1, "point_cloud_lp needs at least one coordinate")
    return _points(spec, pts, p)


def _directed_hausdorff(x: np.ndarray, y: np.ndarray) -> float:
    """The largest |x_i - y_j| of an x_i and its nearest y_j, for points of
    the line and y sorted."""
    j = np.minimum(np.maximum(np.searchsorted(y, x), 1), len(y) - 1)
    return np.minimum(np.abs(x - y[j - 1]), np.abs(x - y[j])).max()


def _lp_gap(p: Optional[float], params: dict, x: np.ndarray, y: np.ndarray) -> float:
    """The Hausdorff distance between the points x and y of l_p, p None for
    the params' p.  On the line, nearest points by sorting: the l_p norm of
    one coordinate is monotone in it, so it commutes with the sup-inf."""
    p = _real(params, "p", 2.0) if p is None else p
    if x.shape[1] > 1:
        cross = _lp_distances(x, y, p)
        return max(cross.min(axis=1).max(), cross.min(axis=0).max())
    a, b = np.sort(x[:, 0]), np.sort(y[:, 0])
    gap = max(_directed_hausdorff(a, b), _directed_hausdorff(b, a))
    return _lp_distances(np.array([[gap]]), np.zeros((1, 1)), p)[0, 0]


def _sphere_gap(params: dict, x: np.ndarray, y: np.ndarray) -> float:
    """The geodesic Hausdorff distance 2r asin(chord / 2r), as monotone maps
    commute with the sup-inf; an arccos form reads 1e-8 for a net and itself."""
    radius = _real(params, "radius", 1.0)
    return 2.0 * radius * math.asin(min(1.0, _lp_gap(2.0, params, x, y) / (2.0 * radius)))


@dataclass(frozen=True)
class _Family:
    """One family of generated spaces, and the only code that knows it:
    ``net`` builds a spec's space, with its structure at snowflake 1;
    ``refine`` names the parameter a refinement level substitutes; ``gap``
    maps (params, x, y) to the Hausdorff distance between the coordinates of
    two of its nets before scale and snowflake; ``cube`` maps params to the
    (n, p) of the unit cube of l_p^n that a net is a lattice of."""

    net: Callable[[SpaceSpec], FiniteMetricSpace]
    refine: Optional[str] = None
    gap: Optional[Callable[[dict, np.ndarray, np.ndarray], float]] = None
    cube: Optional[Callable[[dict], tuple]] = None


FAMILY_TABLE = {
    "interval_net": _Family(_gen_interval, "n", functools.partial(_lp_gap, 1.0)),
    "interval_chebyshev_net": _Family(_gen_interval_chebyshev, "n", functools.partial(_lp_gap, 2.0)),
    "circle_net": _Family(_gen_circle, "n"),
    "cantor_net": _Family(_gen_cantor, "level", functools.partial(_lp_gap, 1.0)),
    "grid_net": _Family(_gen_grid, "m", functools.partial(_lp_gap, None), _grid_cube),
    "sphere_fibonacci_net": _Family(_gen_sphere, "n", _sphere_gap),
    "hyperbolic_disk_net": _Family(_gen_hyperbolic, "n_r"),
    "complete_bipartite": _Family(_gen_bipartite),
    "ultrametric_tree": _Family(_gen_ultrametric, "n"),
    "weighted_tree": _Family(_gen_weighted_tree, "n"),
    "point_cloud_lp": _Family(_gen_point_cloud, gap=functools.partial(_lp_gap, None)),
}


def generate(spec: SpaceSpec) -> FiniteMetricSpace:
    """Build the space described by ``spec`` with its family's `net`.

    The returned metric is d' = scale * d_base**snowflake.  A parameter or
    seed the family cannot read raises InvalidParams, and a distance that
    overflows or is NaN raises NonFiniteEntry instead of a numpy warning.
    """
    with np.errstate(all="ignore"):
        try:
            return FAMILY_TABLE[spec.family].net(spec)
        except KeyError as exc:
            raise InvalidParams(f"{spec.family} needs parameter {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InvalidParams(f"{spec.family}: {exc}") from exc


def random_cloud_spec(
    n: int, dim: int, p: float = 2.0, seed: int = 0, box: float = 1.0
) -> SpaceSpec:
    """A point_cloud_lp spec with seeded uniform coordinates in [0, box]^dim."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, box, size=(n, dim))
    return SpaceSpec("point_cloud_lp", {"points": pts.tolist(), "p": p}, seed=seed)


def _check_scale(t: float) -> None:
    if not 0 < t < math.inf:
        raise NonpositiveScale(f"scale must be positive and finite, got {t}")


def scale_space(space: FiniteMetricSpace, t: float) -> FiniteMetricSpace:
    """Multiply every distance by t > 0."""
    _check_scale(t)
    return FiniteMetricSpace(space.labels, _Own(t * space.dist))


def snowflake_space(space: FiniteMetricSpace, alpha: float) -> FiniteMetricSpace:
    """Raise every distance to the power alpha in (0, 1]."""
    if not (0 < alpha <= 1):
        raise ExponentOutOfRange(
            f"snowflake exponent must lie in (0, 1], got {alpha}"
        )
    return FiniteMetricSpace(space.labels, _Own(space.dist**alpha))


def lp_product(
    a: FiniteMetricSpace, b: FiniteMetricSpace, q: float
) -> FiniteMetricSpace:
    """The l_q product: d((a,b),(a',b')) = (d_A^q + d_B^q)^(1/q).

    The l_1 product carries the factors of a and b and builds its dense
    matrix only when read.
    """
    if not q >= 1:
        raise ExponentOutOfRange(f"product exponent must be >= 1, got {q}")
    labels = tuple((la, lb) for la in a.labels for lb in b.labels)
    build = functools.partial(_lp_dist, functools.partial(_axis, (a, b)), (len(a), len(b)), q)
    if q != 1:
        return FiniteMetricSpace(labels=labels, dist=_Own(build()))
    factors = [getattr(s.structure, "factors", ()) or (s.dist,) for s in (a, b)]
    return _l1_sum(labels, factors[0] + factors[1], build)


def _axis(spaces: tuple, c: int) -> np.ndarray:
    """A copy of the distances of spaces[c] along axes c and k + c of 2k."""
    k, s = len(spaces), spaces[c]
    return s.dist.reshape([len(s) if a % k == c else 1 for a in range(2 * k)]).copy()


def _lp_dist(factor: Callable, sizes: tuple, p: float, scale: float = 1.0) -> np.ndarray:
    """scale times the l_p sum of k = len(sizes) metrics, the first slowest:
    factor(c) gives the c-th along axes c and k + c of 2k, as `_lp_sum` takes it."""
    d = _lp_sum(factor, len(sizes), sizes * 2, p).reshape(math.prod(sizes), -1)
    d *= scale
    return d


def hausdorff_distance(i_set, j_set, space: FiniteMetricSpace) -> float:
    """Hausdorff distance between two index subsets of a common space."""
    i_idx = list(i_set)
    j_idx = list(j_set)
    if not i_idx or not j_idx:
        raise EmptySubset("Hausdorff distance needs nonempty subsets")
    _check_indices(i_idx + j_idx, len(space))
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
    return FiniteMetricSpace(labels=range(d.shape[0]), dist=_Own(d))
