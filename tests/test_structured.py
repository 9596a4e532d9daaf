"""The Kronecker path of l_1 grid nets and l_1 products, against dense Z.

A space with factors takes its spectrum, weighting and magnitude from one
eigensolve and one Cholesky factor per factor.  Each case here is rebuilt
as `FiniteMetricSpace(labels, dist)`, which has no factors, and the dense
`spectrum_diagnostics`/`weighting` of that copy is the oracle.  The
one-coordinate grids of the corpus take the line path instead.

A space with factors stores no dense distance matrix until something reads
`dist`; the matrix it then builds must have the bits of an independent
dense build, and the Kronecker paths must never build it.
"""

import functools
import itertools
import json
import logging
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from maglab import (
    FiniteMetricSpace,
    SpaceSpec,
    generate,
    growth_bound_study,
    hausdorff_distance,
    load_distance_csv,
    lp_product,
    max_diversity,
    negative_type_test,
    rayleigh,
    scale_space,
    scale_sweep,
    snowflake_space,
    spectrum_diagnostics,
    stability_scan,
    weighting,
)
from maglab.errors import NonFiniteEntry, NotPositiveDefinite
from maglab.magnitude import _diagnostics, _each_scale, _Fold, _similarity, _weighting
from maglab.metric_core import _Structure

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
    # a one-coordinate grid is distinct points of the line, on the O(n) path
    # of tests/test_line.py, and meets the same dense oracle at TOL
    assert type(space) is FiniteMetricSpace
    assert space.structure.gaps is not None if "-n1-" in label else space.structure.factors
    dense = _dense(space)
    assert dense.structure is None
    for t in SCALES:
        z = _similarity(space, t)
        got = z.spectrum()
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


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_rayleigh_agrees_with_dense(label):
    space = CORPUS[label]()
    z = np.exp(-_dense(space).dist)
    rng = np.random.default_rng(len(space))
    for _ in range(3):
        mu = rng.uniform(size=len(space))
        want = mu.sum() ** 2 / (mu @ z @ mu)
        assert rayleigh(space, mu) == pytest.approx(want, rel=TOL, abs=0)


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
    assert [(type(s), s.structure) for s in dense] == [(FiniteMetricSpace, None)] * len(dense)
    factored = [grid, lp_product(grid, interval, 1.0)]
    assert [type(s) for s in factored] == [FiniteMetricSpace] * 2
    assert [len(s.structure.factors) for s in factored] == [2, 3]


def _grid_dist(m, n, scale):
    """The l_1 grid's distances built densely: scale * sum_k |i_k - j_k| / (m - 1)
    over the integer offsets of two points' indices.  One axis is a line,
    whose distances come from its points, as a point_cloud_lp's do."""
    if n > 1:
        idx = np.array(list(itertools.product(range(m), repeat=n)))
        return scale * (np.abs(idx[:, None] - idx[None, :]) / max(m - 1, 1)).sum(axis=-1)
    pts = np.linspace(0.0, 1.0, m)[:, None]
    spec = SpaceSpec("point_cloud_lp", {"points": pts.tolist(), "p": 1.0}, scale=scale)
    return generate(spec).dist


def _l1_sum(d, e):
    """The l_1 product's distances by broadcasting: d((i, k), (j, l)) = d_ij + e_kl."""
    n = len(d) * len(e)
    return (d[:, None, :, None] + e[None, :, None, :]).reshape(n, n)


def _factored_cases():
    """(factored space, its distances built densely), for a grid and for
    products of dense and factored operands, nested either way."""
    a = _space("interval_net", n=5, length=2.0)
    b = _space("circle_net", n=6)
    c = _space("weighted_tree", seed=4, n=4)
    k = _space("complete_bipartite", m=3, n=2, r=1.0)
    grid = _grid(3, 2, 2.5)
    g = _grid_dist(3, 2, 2.5)
    point = FiniteMetricSpace(("a",), [[0.0]])
    return {
        "grid": (_grid(4, 2, 1.0), _grid_dist(4, 2, 1.0)),
        "interval-circle": (_product(a, b), _l1_sum(a.dist, b.dist)),
        "left-nested": (_product(a, c, k), _l1_sum(_l1_sum(a.dist, c.dist), k.dist)),
        "right-nested": (
            lp_product(a, lp_product(c, k, 1.0), 1.0), _l1_sum(a.dist, _l1_sum(c.dist, k.dist))
        ),
        "grid-times-tree": (_product(grid, c), _l1_sum(g, c.dist)),
        "tree-times-grid-times-grid": (
            lp_product(c, _product(grid, grid), 1.0), _l1_sum(c.dist, _l1_sum(g, g))
        ),
        "point-times-interval": (_product(point, a), _l1_sum(point.dist, a.dist)),
    }


FACTORED = sorted(_factored_cases())


@pytest.mark.parametrize(
    "m, n, scale", itertools.product((1, 2, 7), (1, 2, 3), (1.0, 2.5, 1e-3))
)
def test_grid_dist_is_the_dense_build(m, n, scale):
    space = _grid(m, n, scale)
    assert "dist" not in vars(space)
    expected = _grid_dist(m, n, scale)
    assert np.array_equal(space.dist, expected)
    assert space.dist is space.dist
    assert not space.dist.flags.writeable


@pytest.mark.parametrize("label", FACTORED)
def test_factored_dist_is_the_dense_build(label):
    space, expected = _factored_cases()[label]
    assert "dist" not in vars(space)
    assert np.array_equal(space.dist, expected)
    assert not space.dist.flags.writeable


def _dense_consumers(space):
    """What subsets, distances, the Gram test and the diversity solve read
    off `dist`, as bytes and floats, and the Rayleigh quotient, which reads
    the similarity operator."""
    n = len(space)
    half = list(range(0, n, 2))
    sub = space.subspace(half[::-1])
    gram = negative_type_test(space, basepoint=n - 1)
    div = max_diversity(space)
    sweep = scale_sweep(space, SCALES, with_diversity=True)
    mu = np.linspace(1.0, 2.0, n)
    return (
        sub.labels, sub.dist.tobytes(),
        hausdorff_distance(half, range(1, n, 2), space), space.diameter,
        gram.negative_type, gram.gram_lambda_min,
        None if gram.witness_vector is None else gram.witness_vector.tobytes(),
        div.diversity, div.measure.tobytes(), div.support, div.fw_gap,
        [r.diversity for r in sweep.records],
        rayleigh(space, mu),
    )


@pytest.mark.parametrize(
    "label", ["grid", "interval-circle", "grid-times-tree", "right-nested"]
)
def test_dense_consumers_see_the_dense_build(label):
    space, expected = _factored_cases()[label]
    dense = FiniteMetricSpace(space.labels, expected)
    *got, quotient = _dense_consumers(space)
    *want, oracle = _dense_consumers(dense)
    assert got == want
    if isinstance(_similarity(dense), _Fold):
        # a dense build symmetric under reversal (the interval-circle's) takes
        # `_Fold`'s matvec, the factored build `_Kron`'s
        assert quotient == pytest.approx(oracle, rel=TOL, abs=0)
    else:
        assert quotient == oracle


def test_overflowing_sum_refused_when_built():
    with pytest.raises(NonFiniteEntry):
        generate(SpaceSpec("grid_net", {"m": 3, "n": 2, "p": 1.0}, scale=1e308))
    huge = _space("interval_net", n=2, length=1e308)
    with pytest.raises(NonFiniteEntry):
        lp_product(huge, huge, 1.0)
    inner = lp_product(_space("interval_net", n=3), huge, 1.0)  # largest 1 + 1e308
    with pytest.raises(NonFiniteEntry):
        lp_product(huge, inner, 1.0)


@pytest.fixture
def unbuildable(monkeypatch):
    """Make any dense build of a factored space fail; a line space, such as
    an interval factor of a product, still builds."""
    dense = _Structure.dense

    def refuse(self, n):
        if self.factors:
            raise AssertionError("a factored space built its dense distance matrix")
        return dense(self, n)

    monkeypatch.setattr(_Structure, "dense", refuse)


def test_kronecker_paths_build_no_dense_matrix(unbuildable):
    # 90,601 points: the dense matrix would take 65 GB
    spec = SpaceSpec("grid_net", {"m": 301, "n": 2, "p": 1.0})
    space = generate(spec)
    assert len(space) == 301**2 and len(space.structure.factors) == 2
    assert "labels=" in repr(space)
    assert spectrum_diagnostics(space).lambda_max > 1.0
    # at t = 300 each axis has spacing 1: 1 + 300 tanh(1/2) per axis
    t = 300.0
    report = weighting(generate(SpaceSpec("grid_net", spec.params, scale=t)))
    assert report.magnitude == pytest.approx(_interval_magnitude(301, 1.0, 1.0) ** 2, rel=1e-12)
    ts = [100.0, 300.0, 900.0]
    assert [r.verdict for r in scale_sweep(space, ts).records] == ["PositiveDefinite"] * 3
    assert len(_each_scale(space, ts, lambda ts, zs, lo, hi, v: _diagnostics(lo, hi))) == len(ts)
    study = growth_bound_study(spec, ts)
    assert len(study.checks) == len(ts)
    # mu = a x b has quotient (sum a sum b)^2 / ((a' Z_1 a)(b' Z_1 b)), Z_1 the axis's
    axis = np.linspace(0.0, 1.0, 301)
    z1 = np.exp(-np.abs(axis[:, None] - axis[None, :]))
    a, b = np.random.default_rng(0).uniform(size=(2, 301))
    want = (a.sum() * b.sum()) ** 2 / ((a @ z1 @ a) * (b @ z1 @ b))
    assert rayleigh(space, np.outer(a, b).ravel()) == pytest.approx(want, rel=TOL, abs=0)
    assert len(lp_product(space, _space("interval_net", n=3), 1.0).structure.factors) == 3


def test_repr_of_a_million_point_grid_builds_nothing(unbuildable):
    """The repr names the labels, the spec and the coordinates, summarized
    by numpy, and no array of the structure."""
    space = generate(SpaceSpec("grid_net", {"m": 1001, "n": 2, "p": 1.0}))
    text = repr(space)
    assert text.startswith("FiniteMetricSpace(labels=range(0, 1002001), provenance=SpaceSpec(")
    assert text.endswith(f", coords={space.coords!r})") and text.count("array(") == 1
    assert len(text) < 1000
    assert "dist" not in vars(space)


def test_first_dense_read_is_logged(caplog):
    space = _grid(5, 2, 1.0)
    with caplog.at_level(logging.DEBUG, logger="maglab"):
        spectrum_diagnostics(space)
        assert caplog.records == []
        assert space.diameter == 2.0
        space.subspace([0, 1])  # reads the cached matrix
    assert [r.getMessage() for r in caplog.records] == [
        "factored space of 25 points: building its dense 25 x 25 distance matrix"
    ]


def test_concurrent_first_reads_agree():
    """Four threads that read a fresh factored space's dist at once, switching
    as often as the interpreter allows, each get the dense build; none raises."""
    space = _grid(30, 2, 1.0)
    barrier = threading.Barrier(4)

    def read(_):
        barrier.wait(timeout=60)
        return space.dist

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            reads = list(pool.map(read, range(4)))
    finally:
        sys.setswitchinterval(interval)
    expected = _grid(30, 2, 1.0).dist
    for d in reads:
        assert np.array_equal(d, expected) and not d.flags.writeable


def test_million_point_sweep_stays_small(tmp_path):
    """`maglab sweep --spec` on the m = 1001, n = 2 l_1 grid (1,002,001
    points, whose dense matrix would take 8 TB) matches the closed form and
    peaks under 200 MiB.  Memory only: its wall time depends on the host."""
    m = 1001
    spec = tmp_path / "grid.json"
    spec.write_text(json.dumps({"family": "grid_net", "params": {"m": m, "n": 2, "p": 1.0}}))
    report = tmp_path / "sweep.json"
    # the child's own peak: Linux folds the forking process's peak RSS into
    # ru_maxrss across exec, and this process is the whole test session
    code = (
        "import re, sys\n"
        "from maglab.cli import run\n"
        "code = run(sys.argv[1:]).exit_code\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(re.search(r'VmHWM:\\s*(\\d+) kB', fh.read()).group(1))\n"
        "sys.exit(code)\n"
    )
    argv = ["sweep", "--spec", str(spec), "--scales", "8:512:4log", "--json", str(report)]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    peak_kib = int(out.stdout.split()[-1])
    records = json.loads(report.read_text())["records"]
    magnitudes = [r for r in records if r["verdict"] == "PositiveDefinite"]
    assert magnitudes
    for r in magnitudes:
        expected = (1.0 + (m - 1) * math.tanh(r["t"] / (2 * (m - 1)))) ** 2
        assert r["magnitude"] == pytest.approx(expected, rel=1e-12, abs=0)
    assert peak_kib < 200 * 1024
