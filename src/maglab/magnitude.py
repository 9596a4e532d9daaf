"""Similarity matrices, PSD diagnostics, weightings, magnitude, scale sweeps.

The similarity matrix of a finite metric space X at scale t is
Z(tX) = exp(-t d(x, y)).  When it is positive definite the magnitude of tX
is the sum of the weighting w solving  Z w = 1.  The verdict, the weighting
and the diversity all read one Z, which the private helpers take as given.

The private helpers take Z(tX) as the operator that `_similarity` alone
chooses, each with `spectrum`, `weighting` and `matvec`.  Distinct points of
the line give `_Path`, which reads the sorted points' gaps in O(n) (Leinster,
arXiv:1012.5857).  A dense space whose point order is symmetric under
reversal gives `_Fold`, two half-size blocks of Z read from its top rows.
Any other space gives `_Kron`, the Kronecker product of its factors'
similarity matrices, never formed: one per factor of an l_1 sum, else Z
itself.  The diversity solve stays dense.
"""

from __future__ import annotations

import functools
import logging
import math
import os
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import (
    DegenerateQuadraticForm, InsufficientRecords, InvalidParams, NonFiniteEntry,
    NotPositiveDefinite,
)
from .metric_core import FiniteMetricSpace, _check_scale, _cpus, _each

logger = logging.getLogger("maglab")

_STACK_ENTRIES = 2**20  # similarity entries per stacked eigensolve of a sweep or scan
_BORDERED_SIDE = 32  # largest Z whose sweep magnitudes come from a stacked Cholesky
_BORDERED_ENTRIES = 2**17  # entries per bordered stack: 1 MiB, and 1 MiB of factor
_GAP_FLOOR = 1e-150  # least t * gap that `_Path.spectrum` puts in its bidiagonal
_SQRT2 = math.sqrt(2.0)

_VERDICTS = ("Indefinite", "PositiveSemidefinite", "PositiveDefinite")


@functools.cache
def _lapack() -> tuple:
    """scipy's float64 (potrf, potrs), imported at the first solve; two workers
    may both import and fetch, and either's handles are the same routines."""
    import scipy.linalg
    return scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def psd_tolerance(lambda_max):
    """Verdict band: scale-invariant and conservative for entries <= 1.

    Elementwise on arrays; fmax, like max(1.0, nan), ignores a NaN.
    """
    return 1e-9 * np.fmax(1.0, lambda_max)


def _verdict_index(lambda_min, lambda_max):
    """Index into _VERDICTS of each spectrum: PD above the band, PSD in it."""
    tau = psd_tolerance(lambda_max)
    return np.add(lambda_min >= -tau, lambda_min > tau, dtype=int)


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
    return _similarities(space.dist, [t])[0]


def _similarities(dist: np.ndarray, ts, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Z(t d) for each t in ts, stacked on a new leading axis, built in `out`
    when it is given.

    `dist` may itself be a stack of (..., n, n) distance matrices.
    """
    z = _exps(dist, ts, out)
    i = np.arange(dist.shape[-1])
    z[..., i, i] = 1.0
    z.setflags(write=False)
    return z


def _exps(dist: np.ndarray, ts, out: Optional[np.ndarray] = None) -> np.ndarray:
    """exp(-t d) for each t in ts, stacked on a new leading axis and
    writable, built in `out` when it is given: `_similarities` of any block
    of distances, its diagonal as computed."""
    for t in ts:
        _check_scale(t)
    with np.errstate(over="ignore"):  # -t d overflows to -inf, whose exp is the correct 0
        z = np.multiply.outer(-np.asarray(ts, dtype=float), dist, out=out)
    return np.exp(z, out=z)


def _per_distinct(fn, items) -> tuple:
    """(fn(a) for a in items), calling fn once per distinct object: an l_1
    grid's factors are one array n times."""
    done = {id(a): a for a in items}
    done = {key: fn(a) for key, a in done.items()}
    return tuple(done[id(a)] for a in items)


class _Path:
    """Z(tX) of distinct points of the line, never formed: for the sorted
    points, Z_ij is the product of q_e = exp(-a_e) over the gaps e between
    i and j, with a_e = t l_e for each gap length l_e.

    That is the covariance of an Ornstein-Uhlenbeck chain, so Z^-1 = B'B
    with B its lower-bidiagonal innovation matrix: B_11 = 1, and row i + 1
    has 1 / s_i on the diagonal and -q_i / s_i left of it, where
    s_i = sqrt(1 - q_i^2).  Vectors are in the space's point order.
    """

    def __init__(self, order: np.ndarray, a: np.ndarray):
        self.order = order
        self.a = a
        self.q = np.exp(-a)

    def spectrum(self) -> SpectrumDiagnostics:
        """lambda_max = 1 / sigma_min(B)^2 and lambda_min = 1 / sigma_max(B)^2,
        each singular value found by bisection, to high relative accuracy,
        on B's Golub-Kahan form: zero diagonal and off-diagonal
        1, q_1 / s_1, 1 / s_1, q_2 / s_2, 1 / s_2, ..."""
        from scipy.linalg import eigvalsh_tridiagonal
        # a gap below the floor moves lambda_min by less than the floor, and
        # keeps the squares of B's entries (below 2 / a) far from overflow;
        # a gap past half the float range overflows to -inf, whose expm1 is the correct -1
        with np.errstate(over="ignore"):
            s = np.sqrt(-np.expm1(-2.0 * np.maximum(self.a, _GAP_FLOOR)))
        n = len(self.a) + 1
        off = np.empty(2 * n - 1)
        off[0] = 1.0
        off[1::2] = self.q / s
        off[2::2] = 1.0 / s
        sigma_min, sigma_max = (
            eigvalsh_tridiagonal(
                np.zeros(2 * n), off, select="i", select_range=(k, k),
                tol=np.finfo(float).tiny,
            )[0]
            for k in (n, 2 * n - 1)
        )
        return _diagnostics(np.array([sigma_max**-2]), np.array([sigma_min**-2]))[0]

    def weighting(self, diag: SpectrumDiagnostics) -> tuple:
        """(w, magnitude), with Leinster's w_v = 1 - sum over the gaps e at v
        of 1 / (1 + e^a_e).  As 1 - 1 / (1 + e^a) = (1 + tanh(a / 2)) / 2, an
        end point weighs (1 + tanh(a / 2)) / 2 and an inner point half the
        sum of its two gaps' tanh(a / 2), with no cancellation."""
        h = 0.5 * np.tanh(0.5 * self.a)
        w = np.empty(len(h) + 1)
        w[self.order] = np.append(0.5, h) + np.append(h, 0.5)
        return w, float(w.sum())

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Z v = L + R - v, in sorted order, with L_i = v_i + q_(i-1) L_(i-1)
        summing v over the points up to i and R_i = v_i + q_i R_(i+1) from i on."""
        u = v[self.order].tolist()
        q = self.q.tolist()
        left, right = u[:], u[:]
        for i in range(1, len(u)):
            left[i] += q[i - 1] * left[i - 1]
        for i in range(len(u) - 2, -1, -1):
            right[i] += q[i] * right[i + 1]
        out = np.empty(len(u))
        out[self.order] = np.add(left, right) - u
        return out

    def dense(self, j: int) -> None:
        return None


class _Kron:
    """Z(tX) at each scale of a block as the Kronecker product of the factor
    similarity matrices, never formed; Z itself is the one-factor case.
    Each of `zs` is a (k, m, m) stack, one matrix per scale, and `dists`
    holds the factors' distances, from which `block` builds other scales;
    one scale is a block of one.  Each factor of a PD product is PD, its
    lambda_max being at least its mean eigenvalue 1, so w and the magnitude
    are the products of the factors' w and sums.
    """

    def __init__(self, zs: tuple, dists: tuple = ()):
        self.zs = zs
        self.dists = dists

    @classmethod
    def of(cls, dists: tuple, ts: list, bufs: Optional[dict] = None) -> "_Kron":
        """The block of scales ts, each distinct factor's stack built once,
        in `bufs` (from `buffers`) when it is given."""
        def stack(d):
            return _similarities(d, ts, out=None if bufs is None else bufs[id(d)][: len(ts)])

        return cls(_per_distinct(stack, dists), dists)

    def spectrum(self) -> SpectrumDiagnostics:
        return _diagnostics(*self.spectra()[:2])[0]

    def weighting(self, diag: SpectrumDiagnostics) -> tuple:
        ws = _per_distinct(lambda f: next(_solve(f, [0], [diag.lambda_min])), self.zs)
        mag = math.prod(float(w.sum()) for w in ws)
        return functools.reduce(np.multiply.outer, ws).ravel(), mag

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Z v: apply each factor on the leading axis, then rotate it last."""
        for f in self.zs:
            v = (f[0] @ v.reshape(f.shape[-1], -1)).T
        return v.ravel()

    @property
    def entries(self) -> int:
        """Z's entries per scale, as a block counts them: each factor's, a
        repeated factor counted each time."""
        return sum(d.size for d in self.dists)

    def buffers(self, k: int) -> dict:
        return {id(d): np.empty((k,) + d.shape) for d in self.dists}

    def block(self, ts: list, bufs: Optional[dict] = None) -> "_Kron":
        return _Kron.of(self.dists, ts, bufs)

    def spectra(self) -> tuple:
        return _spectra(self.zs)

    def magnitudes(self, at: np.ndarray, lambda_min: np.ndarray) -> list:
        """A block's 1'Z^-1 1 at each scale j in at: the product of the
        factors' `_magnitudes`, one call per distinct stack."""
        return list(map(math.prod, zip(*_per_distinct(
            lambda z: _magnitudes(z, at, lambda_min), self.zs))))

    def dense(self, j: int) -> Optional[np.ndarray]:
        """Z at a block's j-th scale, if the block holds it: one factor."""
        return self.zs[0][j] if len(self.zs) == 1 else None


class _Fold:
    """Z(tX) of a space whose point order is symmetric under the reversal
    J: i -> n - 1 - i, so that JZJ = Z, read from Z's top rows alone.

    With h = n // 2, A = Z[:h, :h] and B = Z[:h, n - h:], the orthonormal
    basis Q of (e_i + J e_i) / sqrt 2, (e_i - J e_i) / sqrt 2 splits Z into
    `sym` = A + BJ, bordered for odd n by the fixed middle point with its
    couplings times sqrt 2, and `anti` = A - BJ.  Q'1 = `q1` (sqrt 2 per
    pair, 1 for the middle point) is symmetric, so the weighting
    w = (u, [w_mid,] Ju) and the magnitude q1' sym^-1 q1 come from `sym`
    alone.  Both are stacks, one matrix per scale of ts,
    held in one (2k, n - h, n - h) stack `z`, built in `buf` (from
    `buffers`) when it is given; one scale is a block of one.
    """

    def __init__(self, dist: np.ndarray, ts: list, buf: Optional[np.ndarray] = None):
        n, k = len(dist), len(ts)
        h, r = n // 2, n - n // 2
        z = np.empty((2 * k, r, r)) if buf is None else buf[: 2 * k]
        sym, anti = z[:k], z[k:, :h, :h]
        _exps(dist[:r, :r], ts, out=sym)[:, np.arange(r), np.arange(r)] = 1.0
        _exps(dist[:h, n - h :][:, ::-1], ts, out=anti)  # BJ
        sym[:, :h, :h] += anti
        anti *= -2.0
        anti += sym[:, :h, :h]  # (A + BJ) - 2 BJ
        sym[:, :h, h:] *= _SQRT2  # the middle point's couplings: none for even n
        sym[:, h:, :h] *= _SQRT2
        # for odd n, `anti` is padded by an eigenvalue inside its range, its
        # (0, 0) entry, so that both halves take one eigvalsh call
        z[k:, h:, :] = z[k:, :, h:] = 0.0
        z[k:, h:, h:] = anti[:, :1, :1]
        self.z, self.sym, self.anti, self.dist = z, sym, anti, dist
        self.q1 = np.repeat([_SQRT2, 1.0], [h, r - h])

    def spectrum(self) -> SpectrumDiagnostics:
        return _diagnostics(*self.spectra()[:2])[0]

    def weighting(self, diag: SpectrumDiagnostics) -> tuple:
        h = len(self.dist) // 2
        y = next(_solve(self.sym, [0], [diag.lambda_min], self.q1))
        u = y[:h] / _SQRT2
        return np.concatenate([u, y[h:], u[::-1]]), _dot(self.q1, y)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Z v = Q diag(sym, anti) Q'v."""
        n = len(v)
        h = n // 2
        top, bottom = v[:h], v[::-1][:h]
        ys = self.sym[0] @ np.concatenate([(top + bottom) / _SQRT2, v[h : n - h]])
        ya = self.anti[0] @ ((top - bottom) / _SQRT2)
        out = np.empty(n)
        out[:h] = (ys[:h] + ya) / _SQRT2
        out[h : n - h] = ys[h:]
        out[n - h :] = ((ys[:h] - ya) / _SQRT2)[::-1]
        return out

    @property
    def entries(self) -> int:
        """Z's entries per scale, as a dense block counts them: a block holds
        as many scales as the dense path's, in about half its buffer."""
        return self.dist.size

    def buffers(self, k: int) -> np.ndarray:
        r = len(self.dist) - len(self.dist) // 2
        return np.empty((2 * k, r, r))

    def block(self, ts: list, buf: Optional[np.ndarray] = None) -> "_Fold":
        return _Fold(self.dist, ts, buf)

    def spectra(self) -> tuple:
        """`_Kron.spectra` of a block, both halves from one eigvalsh call:
        numpy holds the GIL through a stacked eigvalsh unless its matrix
        count times their side exceeds 500, so a block of one 800-point
        sphere scale would not run beside another worker's as two 400-side
        calls."""
        vals = np.linalg.eigvalsh(self.z)
        k = len(vals) // 2
        lo, hi = np.minimum(vals[:k, 0], vals[k:, 0]), np.maximum(vals[:k, -1], vals[k:, -1])
        return lo, hi, _verdict_index(lo, hi)

    def magnitudes(self, at: np.ndarray, lambda_min: np.ndarray) -> list:
        return _magnitudes(self.sym, at, lambda_min, self.q1)

    def dense(self, j: int) -> None:
        return None


def _similarity(space: FiniteMetricSpace, t: float = 1.0, ts: Optional[list] = None):
    """Z(tX) as the private helpers take it, and the one place that reads a
    space's ``structure``: a `_Path` for distinct points of the line, a
    `_Kron` of the factors' similarity matrices for an l_1 sum, a `_Fold` for
    n >= 2 points whose distances equal their reversal's bit for bit, else
    the `_Kron` of `similarity` alone.

    Given a list `ts` of scales in place of t, the operator of that block,
    whose `block` builds others (`_each_scale`); a line's block takes the
    dense space's operator, `_Fold` or `_Kron`, as `_Path` stacks nothing.
    """
    s = space.structure
    one = ts is None
    if one and s is not None and s.gaps is not None:
        _check_scale(t)
        return _Path(s.order, t * s.gaps)
    ts = [t] if one else ts
    if s is not None and s.factors:
        return _Kron.of(s.factors, ts)
    d = space.dist
    if len(d) > 1 and np.array_equal(d, d[::-1, ::-1]):
        return _Fold(d, ts)
    if one:  # through `similarity`, which counts its entries
        return _Kron((similarity(space, t)[None],), (d,))
    return _Kron.of((d,), ts)


def spectrum_diagnostics(space: FiniteMetricSpace) -> SpectrumDiagnostics:
    """Extremal eigenvalues of the similarity matrix and a PSD verdict."""
    return _similarity(space).spectrum()


def _spectra(zs: tuple) -> tuple:
    """`_Kron`'s lambda_min, lambda_max and `_VERDICTS` index arrays at k
    scales, given one (k, m, m) stack per factor, from one eigvalsh per
    distinct stack: the extremes of the products of the factors'
    eigenvalues, which may have either sign."""
    vals, *rest = _per_distinct(np.linalg.eigvalsh, zs)
    for v in rest:
        vals = (vals[..., None] * v[:, None]).reshape(len(v), -1)
    lo, hi = vals.min(axis=1), vals.max(axis=1)
    return lo, hi, _verdict_index(lo, hi)


def _diagnostics(lo: np.ndarray, hi: np.ndarray) -> list:
    """SpectrumDiagnostics of each pair of extreme eigenvalues."""
    return [
        SpectrumDiagnostics(
            lambda_min=l,
            lambda_max=h,
            condition_estimate=h / l if l > 0 else math.inf,
            verdict=_VERDICTS[v],
            tolerance_used=tau,
        )
        for l, h, v, tau in zip(
            lo.tolist(), hi.tolist(), _verdict_index(lo, hi).tolist(),
            psd_tolerance(hi).tolist(),
        )
    ]


def _each_scale(space: FiniteMetricSpace, ts: list, task, lead=None) -> list:
    """One result per t in ts, after lead() if a lead is given: a block of
    scales gives the list task(scales, z, lo, hi, verdicts), z being the
    block's operator from `_similarity` and the rest the arrays of its
    `spectra`, so thousands of small matrices build no object per scale;
    task must keep no part of z.

    Scales go in blocks of at most _STACK_ENTRIES similarity entries, as the
    operator counts them per scale, and the operator builds each block and
    eigensolves each of its stacks by one eigvalsh call.  A dense space
    from n = 725 on takes one scale per block.  Given more than one block,
    the lead, then the blocks, run on the shared worker pool (`_each`),
    each worker building its stacks in buffers that the calling thread
    allocated, so the live similarity entries grow only with the worker
    count; one block and its lead run inline.  The results, and the error
    raised, are those of a loop on one CPU that calls lead after the blocks.
    """
    z = _similarity(space, ts=[])
    k = max(1, _STACK_ENTRIES // z.entries)
    blocks = [ts[i : i + k] for i in range(0, len(ts), k)]

    failed = []

    def item(scales, bufs):
        if scales is None:  # the lead: its error waits until every block has run
            try:
                return [lead()]
            except Exception as exc:
                failed.append(exc)
                return []
        b = z.block(scales, bufs)
        return task(scales, b, *b.spectra())

    items = blocks if lead is None else [None, *blocks]
    cpus = _blas_threads() if len(blocks) > 1 else _cpus()  # one block: one worker
    results = _each(item, items, lambda: z.buffers(len(blocks[0])), cpus)
    if failed:
        raise failed[0]
    return [r for rs in results for r in rs]


def _blas_threads() -> int:
    """The threads each eigensolve takes: OpenBLAS reads the first of these
    variables that is set, and without one uses every CPU."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return _cpus()


def weighting(space: FiniteMetricSpace) -> MagnitudeReport:
    """Solve Z w = 1 by Cholesky with one step of iterative refinement."""
    diag = spectrum_diagnostics(space)
    return _weighting(_similarity(space), diag)


def _weighting(z, diag: SpectrumDiagnostics) -> MagnitudeReport:
    """`weighting`, given the similarity matrix as `_similarity` gives it
    and its spectrum diagnostics."""
    if diag.verdict != "PositiveDefinite":
        raise NotPositiveDefinite(
            f"similarity matrix is {diag.verdict} (lambda_min={diag.lambda_min:.3g})",
            diagnostics=diag,
        )
    w, mag = z.weighting(diag)
    residual = float(np.abs(z.matvec(w) - 1.0).max())
    tau_w = 1e-10 * max(1.0, float(np.abs(w).max()))
    return MagnitudeReport(
        magnitude=mag, weighting=w, residual=residual,
        positively_weighted=bool(w.min() >= -tau_w), diagnostics=diag,
    )


def _solve(zs: np.ndarray, at, lambda_min, rhs=None) -> Iterator[np.ndarray]:
    """w with Z w = rhs, 1 when not given, for each Z = zs[j], j in at,
    whose lambda_min is lambda_min[j]: Cholesky with one step of iterative
    refinement."""
    b = np.ones(zs.shape[-1]) if rhs is None else rhs
    # the LAPACK routines behind scipy's cho_factor and cho_solve, unwrapped
    potrf, potrs = _lapack()
    for j in at:
        z = zs[j]
        factor, info = potrf(z, lower=True, clean=False)
        if info == 0:
            w = potrs(factor, b, lower=True)[0]
            yield w + potrs(factor, b - z @ w, lower=True)[0]
        else:  # marginally PD: least squares gives a weighting with an honest residual
            logger.debug("Cholesky factor failed (potrf info %d, lambda_min %.3g); "
                         "weighting by least squares", info, lambda_min[j])
            yield np.linalg.lstsq(z, b, rcond=None)[0]


def _magnitudes(zs: np.ndarray, at: np.ndarray, lambda_min, rhs=None) -> list:
    """1'Z^-1 1 for each positive definite Z = zs[j], j in at, whose lambda_min
    is lambda_min[j], or rhs'Z^-1 rhs when rhs is given.

    Up to side _BORDERED_SIDE, a stacked Cholesky factor of the bordered
    [[Z, 1], [1', inf]] (rhs in place of 1 when given) gives L^-1 1 as each
    factor's last row, and the
    magnitude as its squared norm; the infinite corner's pivot never fails
    and is never read.  The stacks hold at most _BORDERED_ENTRIES entries, so
    they and their factors add at most 2 MiB to any sweep.  Past that side
    the factor outweighs the per-matrix LAPACK round trip, and every matrix
    takes `_solve`.  The path reads the side alone, and a matrix's bits do
    not depend on its stack: a (space, t) gets the same bits in any block.
    """
    m = zs.shape[-1]
    if m > _BORDERED_SIDE:
        return [_dot(rhs, w) for w in _solve(zs, at, lambda_min, rhs)]
    step = _BORDERED_ENTRIES // (m + 1) ** 2
    return [
        mag for i in range(0, len(at), step)
        for mag in _bordered_magnitudes(zs, at[i : i + step], lambda_min, rhs)
    ]


def _dot(rhs, w: np.ndarray) -> float:
    """rhs'w, as w's sum when rhs is not given."""
    return float(w.sum() if rhs is None else rhs @ w)


def _bordered_magnitudes(zs: np.ndarray, at: np.ndarray, lambda_min, rhs=None) -> list:
    """`_magnitudes` of one bordered stack.  If its factor fails, each matrix
    is factored alone, and one that fails alone takes `_solve`."""
    m = zs.shape[-1]
    bordered = np.empty((len(at), m + 1, m + 1))
    bordered[:, m, :m] = bordered[:, :m, m] = 1.0 if rhs is None else rhs
    bordered[:, m, m] = np.inf
    # copy each run of consecutive indices as one slice, with no zs[at] temporary
    i = 0
    for run in np.split(at, np.flatnonzero(np.diff(at) != 1) + 1):
        bordered[i : i + len(run), :m, :m] = zs[run[0] : run[-1] + 1]
        i += len(run)
    try:
        return _last_row_norms(bordered)
    except np.linalg.LinAlgError:
        pass
    mags = []
    for b, j in zip(bordered, at.tolist()):
        try:
            mags += _last_row_norms(b[None])
        except np.linalg.LinAlgError:
            mags.append(_dot(rhs, next(_solve(zs, [j], lambda_min, rhs))))
    return mags


def _last_row_norms(bordered: np.ndarray) -> list:
    """The squared norm of each stacked Cholesky factor's last row, its corner
    left out."""
    y = np.linalg.cholesky(bordered)[:, -1, :-1]
    return (y * y).sum(axis=1).tolist()


def magnitude(space: FiniteMetricSpace) -> float:
    return weighting(space).magnitude


def rayleigh(space: FiniteMetricSpace, mu) -> float:
    """The quotient (sum mu)^2 / (mu' Z mu), with Z mu from the operator that
    `_similarity` gives: no space with factors or of the line forms Z."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (len(space),):
        raise InvalidParams(f"mu must have {len(space)} entries, got shape {mu.shape}")
    if not np.all(np.isfinite(mu)):
        raise NonFiniteEntry("mu contains non-finite entries")
    denom = float(mu @ _similarity(space).matvec(mu))
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
    from .diversity import _max_diversity

    if with_diversity:
        space.dist  # a lazy space builds its dense matrix here, not on a worker

    def block_records(scales, z, lo, hi, verdicts):
        # at the PD scales (index 2), the magnitude with no weighting
        pd = np.flatnonzero(verdicts == 2)
        mags = dict(zip(pd.tolist(), z.magnitudes(pd, lo)))
        divs = [None] * len(scales)
        for j, diag in enumerate(_diagnostics(lo, hi) if with_diversity else ()):
            if diag.verdict != "Indefinite":
                dense = z.dense(j)
                if dense is None:  # a structured block: the solve reads Z itself
                    dense = similarity(space, scales[j])
                divs[j] = _max_diversity(dense, diag).diversity
        return list(map(SweepRecord, scales, lo.tolist(), map(_VERDICTS.__getitem__, verdicts),
                        map(mags.get, range(len(scales))), divs))

    records = _each_scale(space, ts, block_records)
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
    distinct = len({t for t, _ in pts})
    if distinct < 3:
        raise InsufficientRecords(
            f"need magnitude records at 3 distinct scales in window, have {distinct}"
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
