"""The Kronecker path of l_1 grid nets and l_1 products, against dense Z.

A space with factors takes its spectrum, weighting and magnitude from one
eigensolve and one Cholesky factor per factor.  Each case here is rebuilt
as `FiniteMetricSpace(labels, dist)`, which has no factors, and the dense
`_spectrum`/`_weighting` of that copy is the oracle.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from maglab import (
    FiniteMetricSpace,
    SpaceSpec,
    generate,
    load_distance_csv,
    lp_product,
    scale_space,
    scale_sweep,
    snowflake_space,
    spectrum_diagnostics,
    stability_scan,
    weighting,
)
from maglab.errors import NotPositiveDefinite
from maglab.magnitude import _similarity, _spectrum, _weighting

EPS = np.finfo(float).eps
TOL = 1e-12


def _grid(m, n, scale):
    return generate(SpaceSpec("grid_net", {"m": m, "n": n, "p": 1.0}, scale=scale, seed=3))


def _space(family, seed=0, **params):
    return generate(SpaceSpec(family, params, seed=seed))


def _product(*spaces):
    return functools.reduce(lambda a, b: lp_product(a, b, 1.0), spaces)


GRIDS = {
    f"grid-m{m}-n{n}-s{scale}": functools.partial(_grid, m, n, scale)
    for (n, ms), scale in itertools.product(
        [(1, (1, 2, 9, 31)), (2, (2, 5, 12, 20)), (3, (2, 3, 7))], (0.5, 1.0, 2.5)
    )
    for m in ms
}

PRODUCTS = {
    "interval-circle": lambda: _product(
        _space("interval_net", n=5, length=2.0), _space("circle_net", n=6)
    ),
    "trees": lambda: _product(
        _space("weighted_tree", seed=4, n=6), _space("ultrametric_tree", seed=5, n=5)
    ),
    "k32-interval": lambda: _product(
        _space("complete_bipartite", m=3, n=2, r=1.0), _space("interval_net", n=4)
    ),
    # K_{3,2} below its threshold log sqrt 2 has a negative eigenvalue
    "k32-indefinite-circle": lambda: _product(
        _space("complete_bipartite", m=3, n=2, r=0.3), _space("circle_net", n=5)
    ),
    "k32-indefinite-squared": lambda: _product(
        _space("complete_bipartite", m=3, n=2, r=0.3),
        _space("complete_bipartite", m=3, n=2, r=0.3),
    ),
    # at its threshold K_{3,2} is singular: the product is PSD at t = 1
    "k32-threshold-interval": lambda: _product(
        _space("complete_bipartite", m=3, n=2, r=math.log(math.sqrt(2.0))),
        _space("interval_net", n=3),
    ),
    "three-factors": lambda: _product(
        _space("interval_net", n=3), _space("weighted_tree", seed=7, n=4),
        _space("complete_bipartite", m=3, n=2, r=0.5),
    ),
    "grid-times-tree": lambda: _product(
        _grid(4, 2, 1.0), _space("ultrametric_tree", seed=2, n=4)
    ),
    "point-times-interval": lambda: _product(
        FiniteMetricSpace(("a",), [[0.0]]), _space("interval_net", n=6)
    ),
}

CORPUS = {**GRIDS, **PRODUCTS}
SCALES = (0.3, 1.0, 4.0)


def _dense(space):
    return FiniteMetricSpace(space.labels, space.dist)


def _check_spectrum(got, want):
    assert got.verdict == want.verdict
    tol = TOL * want.lambda_max
    assert abs(got.lambda_min - want.lambda_min) <= tol
    assert abs(got.lambda_max - want.lambda_max) <= tol


def _check_weighting(space, t, got, want):
    """Magnitudes agree to TOL relative.  The dense weighting vector is off
    by up to kappa eps of its largest entry (kappa the condition estimate),
    so the vectors agree to TOL or that, whichever is larger, and the
    structured vector solves the dense system to TOL."""
    assert got.magnitude == pytest.approx(want.magnitude, rel=TOL, abs=0)
    scale = np.abs(want.weighting).max()
    kappa = want.diagnostics.condition_estimate
    assert np.abs(got.weighting - want.weighting).max() <= max(TOL, kappa * EPS) * scale
    z = np.exp(-t * space.dist)
    assert np.abs(z @ got.weighting - 1.0).max() <= TOL
    assert got.residual <= TOL
    assert got.positively_weighted == want.positively_weighted


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_agrees_with_dense(label):
    space = CORPUS[label]()
    assert space.factors
    dense = _dense(space)
    assert not dense.factors
    for t in SCALES:
        z = _similarity(space, t)
        got = _spectrum(z)
        want = spectrum_diagnostics(scale_space(dense, t))
        _check_spectrum(got, want)
        if want.verdict == "PositiveDefinite":
            _check_weighting(space, t, _weighting(z, got), weighting(scale_space(dense, t)))
        else:
            with pytest.raises(NotPositiveDefinite):
                _weighting(z, got)


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_sweep_and_scan_agree_with_dense(label):
    space = CORPUS[label]()
    dense = _dense(space)
    got, want = scale_sweep(space, SCALES), scale_sweep(dense, SCALES)
    for a, b in zip(got.records, want.records):
        lambda_max = spectrum_diagnostics(scale_space(dense, b.t)).lambda_max
        assert a.verdict == b.verdict
        assert abs(a.lambda_min - b.lambda_min) <= TOL * lambda_max
        if b.magnitude is None:
            assert a.magnitude is None
        else:
            assert a.magnitude == pytest.approx(b.magnitude, rel=TOL, abs=0)
    scan, oracle = stability_scan(space, SCALES), stability_scan(dense, SCALES)
    assert scan.failing_scales == oracle.failing_scales
    assert scan.classification == oracle.classification


def test_corpus_covers_every_verdict():
    verdicts = {spectrum_diagnostics(make()).verdict for make in CORPUS.values()}
    assert verdicts == {"PositiveDefinite", "PositiveSemidefinite", "Indefinite"}


@pytest.mark.parametrize("label", ["grid-m12-n2-s0.5", "trees", "three-factors"])
def test_same_spec_same_bytes(label):
    first, second = CORPUS[label](), CORPUS[label]()
    a, b = weighting(first), weighting(second)
    assert a.weighting.tobytes() == b.weighting.tobytes()
    assert repr(a.diagnostics) == repr(b.diagnostics)
    assert (a.magnitude, a.residual) == (b.magnitude, b.residual)
    assert repr(scale_sweep(first, SCALES)) == repr(scale_sweep(second, SCALES))


def _interval_magnitude(m, h, t):
    return 1.0 + (m - 1) * math.tanh(t * h / 2.0)


@pytest.mark.parametrize("seed", range(8))
def test_interval_products_match_closed_form(seed):
    """|tX| = prod_k (1 + (m_k - 1) tanh(t h_k / 2)), h_k the spacing."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 13, size=int(rng.integers(1, 4)))
    lengths = rng.uniform(0.2, 5.0, size=len(sizes))
    factors = [
        _space("interval_net", n=int(m), length=float(length))
        for m, length in zip(sizes, lengths)
    ]
    space = _product(*factors)
    # at t = 0.05 the verdict band already calls some of these PSD
    scales = np.geomspace(0.25, 50.0, 9)
    for record in scale_sweep(space, scales).records:
        expected = math.prod(
            _interval_magnitude(m, length / max(m - 1, 1), record.t)
            for m, length in zip(sizes, lengths)
        )
        assert record.magnitude == pytest.approx(expected, rel=1e-13, abs=0)


def test_grid_weighting_matches_closed_form():
    # an m-point interval with spacing h weights its ends 1 / (1 + e^-h)
    # and every inner point tanh(h / 2)
    m, n, scale = 12, 3, 0.5
    h = scale / (m - 1)
    w = np.full(m, math.tanh(h / 2.0))
    w[[0, -1]] = 1.0 / (1.0 + math.exp(-h))
    expected = functools.reduce(np.multiply.outer, [w] * n).ravel()
    got = weighting(_grid(m, n, scale)).weighting
    assert np.abs(got - expected).max() <= 1e-13 * expected.max()


def test_dense_constructions_carry_no_factors(tmp_path):
    grid = _grid(4, 2, 1.0)
    interval = _space("interval_net", n=4)
    path = tmp_path / "grid.csv"
    np.savetxt(path, grid.dist, delimiter=",", fmt="%.17g")
    dense = [
        load_distance_csv(path),
        grid.subspace(range(len(grid))),
        scale_space(grid, 2.0),
        snowflake_space(grid, 1.0),
        _dense(grid),
        generate(SpaceSpec("grid_net", {"m": 4, "n": 2, "p": 2.0})),
        generate(SpaceSpec("grid_net", {"m": 4, "n": 2, "p": 1.0}, snowflake=0.5)),
        generate(SpaceSpec("point_cloud_lp", {"points": [[0, 0], [1, 2]], "p": 1.0})),
        lp_product(interval, interval, 2.0),
        lp_product(grid, interval, math.inf),
    ]
    assert [s.factors for s in dense] == [()] * len(dense)
    assert len(grid.factors) == 2
    assert len(lp_product(grid, interval, 1.0).factors) == 3
