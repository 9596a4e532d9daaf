"""The split path of spaces whose point order is symmetric under reversal,
against dense Z.

A dense space whose distances equal d[::-1, ::-1] bit for bit takes
`_Fold`: two half-size blocks of Z, read from its top rows.  Each case here
compares it with the one-factor `_Kron` of the same Z, the dense path that
every other dense space takes, on the same exactly invariant matrix.
"""

import functools
import importlib
import math

import numpy as np
import pytest

from maglab import (
    FiniteMetricSpace, SpaceSpec, generate, metric_core, scale_sweep, similarity,
    stability_scan,
)
from maglab.analysis import product_counterexample_experiment
from maglab.magnitude import _Fold, _Kron, _similarity, _weighting, psd_tolerance

from conftest import random_cloud

# the package attribute `maglab.magnitude` is the function, not the module
magnitude_module = importlib.import_module("maglab.magnitude")

EPS = np.finfo(float).eps
TOL = 1e-12
SCALES = (1e-3, 0.3, 1.0, 8.0, 30.0)
# (scale, snowflake) of each generated space: as built, scaled, snowflaked
TRANSFORMS = ((1.0, 1.0), (2.5, 1.0), (1.0, 0.5))


def _specs():
    specs = {}
    for n in (2, 3, 7, 64, 65, 400, 401):
        for radius in (1.0, 3.0):
            specs[f"sphere-n{n}-r{radius:g}"] = ("sphere_fibonacci_net", {"n": n, "radius": radius})
    for n in (4, 9, 200):
        specs[f"circle-n{n}"] = ("circle_net", {"n": n})
    # K_{m,m} is singular at t r = log(m - 1): at t = 1 for r = log(m - 1)
    for m in (3, 4):
        specs[f"k{m}{m}-threshold"] = ("complete_bipartite", {"m": m, "n": m, "r": math.log(m - 1)})
        specs[f"k{m}{m}-r1"] = ("complete_bipartite", {"m": m, "n": m, "r": 1.0})
    # dense grids, odd and even m: the p = 1 grid is dense only when snowflaked
    for p in (0.5, 1.5, 2.0, math.inf):
        for n, ms in ((2, (4, 5)), (3, (3, 4))):
            for m in ms:
                specs[f"grid-p{p:g}-n{n}-m{m}"] = ("grid_net", {"m": m, "n": n, "p": p})
    return {
        f"{label}-s{scale:g}-a{snowflake:g}": SpaceSpec(family, params, scale, snowflake)
        for label, (family, params) in specs.items()
        for scale, snowflake in TRANSFORMS
    }


CORPUS = _specs()


@functools.cache
def _space(label):
    return generate(CORPUS[label])


def _dense(space, t):
    return _Kron((similarity(space, t)[None],))


def test_corpus_is_exactly_invariant():
    for label in CORPUS:
        d = _space(label).dist
        assert np.array_equal(d, d[::-1, ::-1]), label


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_agrees_with_dense(label):
    """lambda_min and lambda_max to TOL lambda_max; the verdict wherever the
    dense lambda_min lies farther than that from the band's edges; the
    magnitude to TOL relative; the weighting to TOL or 4 kappa eps, whichever
    is larger, as a share of its largest entry, kappa being the condition
    estimate; and the split vector solves the dense system to TOL.

    Each solve is off the exact weighting by up to about 2 kappa eps: at
    t = 1 on the 200-point circle, whose exact weighting is uniform, the
    split one is 0.5 and the dense one 1.0 kappa eps off.  On the corpus the
    two differ by at most 2.5 kappa eps where 4 kappa eps passes TOL, and by
    at most 2.3e-13 elsewhere, with OpenBLAS on one thread or on two."""
    space = _space(label)
    for t in SCALES:
        z, oracle = _similarity(space, t), _dense(space, t)
        assert isinstance(z, _Fold)
        got, want = z.spectrum(), oracle.spectrum()
        tol = TOL * want.lambda_max
        assert abs(got.lambda_min - want.lambda_min) <= tol
        assert abs(got.lambda_max - want.lambda_max) <= tol
        tau = psd_tolerance(want.lambda_max)
        if min(abs(want.lambda_min - tau), abs(want.lambda_min + tau)) > tol:
            assert got.verdict == want.verdict
        if got.verdict != "PositiveDefinite" or want.verdict != "PositiveDefinite":
            continue
        a, b = _weighting(z, got), _weighting(oracle, want)
        assert a.magnitude == pytest.approx(b.magnitude, rel=TOL, abs=0)
        scale = np.abs(b.weighting).max()
        kappa = want.condition_estimate
        bound = max(TOL, 4 * kappa * EPS)
        assert np.abs(a.weighting - b.weighting).max() <= bound * scale
        assert np.abs(oracle.matvec(a.weighting) - 1.0).max() <= TOL
        assert a.residual <= TOL
        assert a.positively_weighted == b.positively_weighted


def test_corpus_covers_every_verdict():
    verdicts = {
        _similarity(_space(label), t).spectrum().verdict for label in CORPUS for t in SCALES
    }
    assert verdicts == {"PositiveDefinite", "PositiveSemidefinite", "Indefinite"}


@pytest.mark.parametrize("label", ["sphere-n7-r3-s1-a1", "sphere-n64-r1-s2.5-a1",
                                   "circle-n9-s1-a0.5", "k44-threshold-s1-a1"])
def test_matvec_and_rayleigh_agree_with_dense(label):
    space = _space(label)
    rng = np.random.default_rng(len(space))
    for t in SCALES:
        z, oracle = _similarity(space, t), _dense(space, t)
        for _ in range(3):
            v = rng.normal(size=len(space))
            want = oracle.matvec(v)
            assert np.abs(z.matvec(v) - want).max() <= TOL * np.abs(v).sum()


@pytest.mark.parametrize("label", ["sphere-n65-r1-s1-a1", "sphere-n400-r3-s1-a0.5",
                                   "circle-n200-s2.5-a1", "k33-threshold-s1-a1"])
def test_sweep_and_scan_agree_with_dense(label):
    space = _space(label)
    sweep, scan = scale_sweep(space, SCALES), stability_scan(space, SCALES)
    for r, s in zip(sweep.records, scan.records):
        want = _dense(space, r.t).spectrum()
        assert r.lambda_min == s.lambda_min
        assert abs(r.lambda_min - want.lambda_min) <= TOL * want.lambda_max
        if r.magnitude is not None:
            expected = _weighting(_dense(space, r.t), want).magnitude
            assert r.magnitude == pytest.approx(expected, rel=TOL, abs=0)


def _nudged():
    """An invariant matrix with one symmetric pair of entries moved by 1 ulp."""
    d = np.array(_space("sphere-n7-r1-s1-a1").dist)
    d[0, 2] = d[2, 0] = np.nextafter(d[0, 2], np.inf)
    return FiniteMetricSpace(range(len(d)), d)


@pytest.mark.parametrize("space", [
    generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 1.0})),
    *[random_cloud(seed, n_max=30) for seed in range(5)],
    generate(SpaceSpec("sphere_fibonacci_net", {"n": 1})),
    _nudged(),
], ids=["k32", *[f"cloud{seed}" for seed in range(5)], "one-point", "nudged-sphere"])
def test_stays_dense(space):
    assert isinstance(_similarity(space, 1.0), _Kron)
    assert isinstance(_similarity(space, ts=[1.0, 2.0]), _Kron)


def test_product_counterexample_stays_dense(monkeypatch):
    """The experiment's 25-point product scans through `_Kron`, with the
    classification of the paper."""
    built = []
    original = magnitude_module._similarity

    def recorded(space, t=1.0, ts=None):
        z = original(space, t, ts)
        built.append(type(z))
        return z

    monkeypatch.setattr(magnitude_module, "_similarity", recorded)
    assert product_counterexample_experiment().classification == "NotStablyPD"
    assert built and set(built) == {_Kron}


class TestHalfSizeEigensolves:
    """A sphere net's sweep and scan eigensolve only half-size matrices,
    and give the bits of a per-scale loop on any worker count and block cap."""

    @pytest.fixture
    def eigvalsh_shapes(self, monkeypatch):
        shapes = []
        original = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            shapes.append(a.shape)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return shapes

    @pytest.mark.parametrize("n", [30, 31])
    def test_sweep_and_scan_solve_halves(self, eigvalsh_shapes, monkeypatch, n):
        """Each block of two scales is one eigvalsh of its four half-size
        matrices; for odd n the antisymmetric ones are padded to the side
        of the symmetric ones."""
        monkeypatch.setattr(metric_core, "_cpus", lambda: 1)  # blocks in order
        monkeypatch.setattr(magnitude_module, "_STACK_ENTRIES", 2 * n * n)
        space = generate(SpaceSpec("sphere_fibonacci_net", {"n": n}))
        ts = [0.5, 1.0, 2.0, 4.0, 8.0]
        scale_sweep(space, ts)
        stability_scan(space, ts)
        r = n - n // 2
        blocks = [(4, r, r), (4, r, r), (2, r, r)]
        # the scan's Gram test is the one n - 1 side solve, the first item of
        # the scan's batch
        assert eigvalsh_shapes == blocks + [(n - 1, n - 1)] + blocks

    CASES = [
        (generate(SpaceSpec("sphere_fibonacci_net", {"n": 31}, scale=2.0)),
         np.geomspace(0.01, 20.0, 7)),
        (generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 3, "r": 0.5})),
         np.linspace(0.2, 2.0, 9)),
        (generate(SpaceSpec("circle_net", {"n": 40}, snowflake=0.5)), np.geomspace(0.05, 5.0, 6)),
    ]

    @staticmethod
    def _per_scale(space, grid, with_diversity):
        """`scale_sweep` and `stability_scan` records, one scale at a time."""
        records = [scale_sweep(space, [t], with_diversity).records[0] for t in sorted(grid)]
        return repr(records), repr([stability_scan(space, [t]).records[0] for t in sorted(grid)])

    @pytest.mark.parametrize("space, grid", CASES)
    @pytest.mark.parametrize("with_diversity", [False, True])
    def test_any_worker_count_and_block_cap(self, monkeypatch, space, grid, with_diversity):
        monkeypatch.setattr(magnitude_module, "_blas_threads", lambda: 1)
        expected = self._per_scale(space, grid, with_diversity)
        entries = _similarity(space, ts=[]).entries
        for cpus in (1, 2):
            monkeypatch.setattr(metric_core, "_cpus", lambda: cpus)
            for per_block in (1, 2, len(grid) - 1, len(grid)):
                monkeypatch.setattr(magnitude_module, "_STACK_ENTRIES", per_block * entries)
                sweep = scale_sweep(space, grid, with_diversity)
                scan = stability_scan(space, grid)
                assert (repr(sweep.records), repr(scan.records)) == expected
