"""The line path of distinct points on the real line, against dense Z.

`generate` gives interval, Chebyshev and Cantor nets, one-coordinate grids
and one-column l_p point clouds (p >= 1) at snowflake 1 as a line space,
which keeps only its sorted gaps.  Its spectrum, weighting and magnitude
take O(n) at each scale.  Each case here is rebuilt as
`FiniteMetricSpace(labels, dist)`, which keeps no gaps, and the dense
`_Kron` spectrum and `_weighting` of that copy are the oracle.
"""

import dataclasses
import functools
import json
import logging
import math
import os
import pickle
import subprocess
import sys
import warnings

import numpy as np
import pytest

from maglab import (
    FiniteMetricSpace,
    SpaceSpec,
    approx_magnitude,
    generate,
    lp_product,
    magnitude,
    rayleigh,
    scale_space,
    spectrum_diagnostics,
    weighting,
)
from maglab.analysis import _ambient_gap, _voronoi_cell_measure
from maglab.errors import InvalidParams, NotPositiveDefinite
from maglab.magnitude import _Kron, _Path, _similarity, _weighting
from maglab.metric_core import FAMILY_TABLE, _Structure

from conftest import stacked_lp_distances

SCALES = (1e-3, 1e-2, 0.3, 1.0, 30.0)


def _net(family, **params):
    return generate(SpaceSpec(family, params))


def _cloud(seed, p):
    """Unsorted points of the line, as an l_p cloud of one column at scale 2.5."""
    x = np.random.default_rng(seed).uniform(-3.0, 3.0, size=40)
    return generate(SpaceSpec("point_cloud_lp", {"points": x[:, None].tolist(), "p": p},
                              scale=2.5))


CORPUS = {
    **{f"interval-{n}": functools.partial(_net, "interval_net", n=n)
       for n in (2, 11, 201, 801)},
    **{f"chebyshev-{n}": functools.partial(_net, "interval_chebyshev_net", n=n)
       for n in (2, 11, 201, 801)},
    **{f"cantor-{level}": functools.partial(_net, "cantor_net", level=level)
       for level in range(1, 10)},
    **{f"cloud-{seed}-p{p}": functools.partial(_cloud, seed, p)
       for seed, p in enumerate((1.0, 2.0, 3.0, math.inf))},
}


def _dense(space):
    return FiniteMetricSpace(space.labels, space.dist)


def _is_line(space):
    """A line space: a `FiniteMetricSpace` whose structure holds sorted gaps."""
    return type(space) is FiniteMetricSpace and getattr(space.structure, "gaps", None) is not None


def _leinster(space, t):
    """|tX| = 1 + sum of tanh(t l / 2) over the gaps l of the sorted points."""
    x = np.sort(space.coords[:, 0])
    return math.fsum([1.0, *(math.tanh(t * space.provenance.scale * (b - a) / 2.0)
                             for a, b in zip(x, x[1:]))])


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_agrees_with_dense(label):
    space = CORPUS[label]()
    assert _is_line(space)
    dense = _dense(space)
    for t in SCALES:
        z = _similarity(space, t)
        assert isinstance(z, _Path)
        got = z.spectrum()
        want = _similarity(dense, t).spectrum()
        assert got.verdict == want.verdict
        assert got.lambda_max == pytest.approx(want.lambda_max, rel=1e-12, abs=0)
        assert abs(got.lambda_min - want.lambda_min) <= 1e-14 * want.lambda_max
        if want.verdict != "PositiveDefinite":
            with pytest.raises(NotPositiveDefinite):
                _weighting(z, got)
            continue
        report, oracle = _weighting(z, got), _weighting(_similarity(dense, t), want)
        assert report.magnitude == pytest.approx(oracle.magnitude, rel=1e-12, abs=0)
        assert report.magnitude == pytest.approx(_leinster(space, t), rel=1e-14, abs=0)
        # the dense solve's own forward error reaches 3e-9 of the largest weight
        scale = np.abs(oracle.weighting).max()
        assert np.abs(report.weighting - oracle.weighting).max() <= 1e-8 * scale
        assert report.positively_weighted and oracle.positively_weighted
        assert report.residual <= 1e-13


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_rayleigh_agrees_with_dense(label):
    space = CORPUS[label]()
    z = np.exp(-_dense(space).dist)
    rng = np.random.default_rng(len(space))
    for _ in range(3):
        mu = rng.uniform(size=len(space))
        want = mu.sum() ** 2 / (mu @ z @ mu)
        assert rayleigh(space, mu) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("scale", [1e-310, 1e-300, 1e-200, 1e-100])
def test_tiny_scales_agree_with_dense(scale):
    """Where t l underflows past the squares of B's entries, the floor on it
    keeps the verdict and lambda_max, and lambda_min stays below the band."""
    space = generate(SpaceSpec("interval_net", {"n": 5}, scale=scale))
    assert _is_line(space)
    got, want = spectrum_diagnostics(space), spectrum_diagnostics(_dense(space))
    assert got.verdict == want.verdict == "PositiveSemidefinite"
    assert got.lambda_max == pytest.approx(want.lambda_max, rel=1e-12, abs=0)
    assert abs(got.lambda_min - want.lambda_min) <= 1e-14 * want.lambda_max


def test_overflowing_gap_warns_nothing():
    """Twice the gap of the 2-point net of length 1.7e308 overflows to inf,
    and expm1 of its -inf is the correct -1: Z is the identity."""
    space = generate(SpaceSpec("interval_net", {"n": 2, "length": 1.7e308}))
    assert _is_line(space)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diag = spectrum_diagnostics(space)
    assert diag.lambda_min == pytest.approx(1.0, abs=1e-15)
    assert diag.lambda_max == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("label, t", [
    ("chebyshev-801", 1e-3), ("chebyshev-801", 1e-2), ("cantor-9", 1e-3),
])
def test_band_cases_are_semidefinite_on_both_paths(label, t):
    space = CORPUS[label]()
    assert _similarity(space, t).spectrum().verdict == "PositiveSemidefinite"
    assert _similarity(_dense(space), t).spectrum().verdict == "PositiveSemidefinite"


def test_public_functions_take_the_line_path():
    space = generate(SpaceSpec("interval_chebyshev_net", {"n": 50}, scale=3.0))
    dense = _dense(space)
    assert spectrum_diagnostics(space).verdict == spectrum_diagnostics(dense).verdict
    assert magnitude(space) == pytest.approx(magnitude(dense), rel=1e-12)
    assert magnitude(space) == pytest.approx(_leinster(space, 1.0), rel=1e-14)
    mu = _voronoi_cell_measure(space)
    assert rayleigh(space, mu) == pytest.approx(rayleigh(dense, mu), rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_matvec_is_dense_matmul(seed):
    space = _cloud(seed, 2.0)
    rng = np.random.default_rng(seed)
    for t in (0.05, 1.0, 20.0):
        z = np.exp(-t * space.dist)
        v = rng.normal(size=len(space))
        got = _similarity(space, t).matvec(v)
        assert np.abs(got - z @ v).max() <= 1e-13 * (np.abs(z) @ np.abs(v)).max()


@pytest.mark.parametrize("spec", [
    SpaceSpec("point_cloud_lp", {"points": [[0.0], [1.0], [1.0], [2.5]]}),  # repeated
    SpaceSpec("interval_net", {"n": 20}, snowflake=0.5),
    SpaceSpec("cantor_net", {"level": 4}, snowflake=0.99),
    SpaceSpec("point_cloud_lp", {"points": [[0.0], [1.0], [2.5]], "p": 0.5}),
    SpaceSpec("point_cloud_lp", {"points": [[0.0, 1.0], [1.0, 0.0], [2.5, 2.5]], "p": 1.0}),
])
def test_stays_dense(spec):
    space = generate(spec)
    assert type(space) is FiniteMetricSpace and space.structure is None
    assert isinstance(_similarity(space, 1.0), _Kron)


# params that make each family's generator run; a new family needs a row
FAMILY_PARAMS = {
    "interval_net": {"n": 6},
    "interval_chebyshev_net": {"n": 6},
    "circle_net": {"n": 6},
    "cantor_net": {"level": 3},
    "grid_net": {"m": 4, "n": 1, "p": 2.0},
    "sphere_fibonacci_net": {"n": 6},
    "hyperbolic_disk_net": {"n_r": 2, "n_theta": 3},
    "complete_bipartite": {"m": 3, "n": 2},
    "ultrametric_tree": {"n": 6},
    "weighted_tree": {"n": 6},
    "point_cloud_lp": {"points": [[0.5], [-1.0], [2.0], [0.0]], "p": 3.0},
}


@pytest.mark.parametrize("family", sorted(FAMILY_TABLE))
def test_one_column_families_take_the_line_path(family):
    """A family whose generator gives one coordinate column is a line space
    at snowflake 1 and dense when snowflaked; any other family never is."""
    params = FAMILY_PARAMS[family]
    space = generate(SpaceSpec(family, params))
    one_column = space.coords is not None and space.coords.shape[1] == 1
    assert _is_line(space) == one_column
    assert type(generate(SpaceSpec(family, params, snowflake=0.5))) is FiniteMetricSpace


def test_family_params_cover_the_table():
    assert set(FAMILY_PARAMS) == set(FAMILY_TABLE)


@pytest.fixture
def unbuildable(monkeypatch):
    """Make any dense build of a structured space fail."""
    def refuse(self, n):
        raise AssertionError("a line space built its dense distance matrix")

    monkeypatch.setattr(_Structure, "dense", refuse)


@pytest.mark.parametrize("family, key, levels", [
    ("interval_net", "n", [11, 51, 201, 801]),
    ("interval_chebyshev_net", "n", [3, 17, 65]),
    ("cantor_net", "level", [3, 5, 7, 9]),
])
def test_line_path_builds_no_dense_matrix(unbuildable, family, key, levels):
    space = generate(SpaceSpec(family, {key: levels[-1]}, scale=2.0))
    assert "labels=" in repr(space)
    spectrum_diagnostics(space)
    report = weighting(space)
    assert magnitude(space) == report.magnitude
    rayleigh(space, _voronoi_cell_measure(space))
    template = SpaceSpec(family, {"length": 2.0})
    for quadrature in (False, True):
        study = approx_magnitude(template, levels, quadrature=quadrature)
        assert [r.gap is not None for r in study.records] == [True] * len(levels)


@pytest.mark.parametrize("spec", [
    SpaceSpec("interval_chebyshev_net", {"n": 7, "length": 3.0}, scale=2.5),
    SpaceSpec("cantor_net", {"level": 4}),
    SpaceSpec("point_cloud_lp", {"points": [[0.5], [-1.0], [2.0]], "p": 3.0}, scale=0.7),
    SpaceSpec("point_cloud_lp", {"points": [[0.5], [-1.0], [2.0]], "p": math.inf}),
])
def test_dist_is_the_dense_build(spec, caplog):
    space = generate(spec)
    assert "dist" not in vars(space)
    x = np.asarray(space.coords)
    p = float(spec.params.get("p", 1.0))
    with caplog.at_level(logging.DEBUG, logger="maglab"):
        assert space.dist.tobytes() == (spec.scale * stacked_lp_distances(x, x, p)).tobytes()
    assert space.dist is space.dist and not space.dist.flags.writeable
    n = len(space)
    assert [r.getMessage() for r in caplog.records] == [
        f"line space of {n} points: building its dense {n} x {n} distance matrix"
    ]


def _reference_gap(coarse, fine):
    """`_ambient_gap` through the coarse x fine matrix of distances."""
    spec = fine.provenance
    cross = stacked_lp_distances(coarse.coords, fine.coords, float(spec.params.get("p", 2.0)))
    gap = max(cross.min(axis=1).max(), cross.min(axis=0).max())
    return float(spec.scale * gap**spec.snowflake)


@pytest.mark.parametrize("family, key, levels", [
    ("interval_net", "n", [2, 11, 51, 201]),
    ("interval_chebyshev_net", "n", [2, 3, 17, 201]),
    ("cantor_net", "level", [1, 3, 5, 8]),
])
@pytest.mark.parametrize("scale, snowflake", [(1.0, 1.0), (2.5, 1.0), (0.3, 0.5)])
def test_gap_is_the_cross_matrix_gap(family, key, levels, scale, snowflake):
    def net(k):
        return generate(SpaceSpec(family, {key: k, "length": 7.3}, scale, snowflake))

    fine = net(levels[-1])
    for k in levels:
        coarse = net(k)
        assert _ambient_gap(coarse, fine) == _reference_gap(coarse, fine)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0, math.inf])
def test_gap_of_unsorted_clouds(p):
    rng = np.random.default_rng(7)
    a, b = (generate(SpaceSpec("point_cloud_lp", {"points": rng.uniform(-2, 2, (m, 1)).tolist(),
                                                  "p": p}))
            for m in (30, 70))
    assert _ambient_gap(a, b) == _reference_gap(a, b)


def _pickle_cases():
    interval = _net("interval_net", n=4)
    return {
        "l1-grid": generate(SpaceSpec("grid_net", {"m": 3, "n": 2, "p": 1.0})),
        "l1-product": lp_product(interval, generate(SpaceSpec("circle_net", {"n": 3})), 1.0),
        "line-net": _net("cantor_net", level=3),
        "unsorted-cloud": _cloud(1, 3.0),
    }


@pytest.mark.parametrize("label", sorted(_pickle_cases()))
@pytest.mark.parametrize("read_first", [False, True])
def test_pickle_round_trip(label, read_first):
    space = _pickle_cases()[label]
    if read_first:
        space.dist
    copy = pickle.loads(pickle.dumps(space))
    assert type(copy) is type(space) is FiniteMetricSpace
    assert ("dist" in vars(copy)) == read_first
    assert copy.dist.tobytes() == _pickle_cases()[label].dist.tobytes()
    got, want = copy.structure, space.structure
    assert len(got.factors) == len(want.factors)
    for a, b in zip(got.factors, want.factors):
        assert a.tobytes() == b.tobytes()
    if _is_line(space):
        assert got.gaps.tobytes() == want.gaps.tobytes()
        assert got.order.tobytes() == want.order.tobytes()
    assert want.factors or _is_line(space)


@pytest.mark.parametrize("label", sorted(_pickle_cases()))
@pytest.mark.parametrize("read_first", [False, True])
def test_replace_keeps_dist_and_structure(label, read_first):
    """`dataclasses.replace` of the labels, coords or provenance of a
    structured space keeps its structure and its dist bits.  Given another
    matrix, even one 1 ulp away, it raises InvalidParams; dropping the
    structure gives the dense space."""
    space = _pickle_cases()[label]
    if read_first:
        space.dist
    want = _pickle_cases()[label].dist.tobytes()
    n = len(space)
    for change in ({"labels": [f"x{i}" for i in range(n)]}, {"coords": np.zeros((n, 1))},
                   {"provenance": None}):
        copy = dataclasses.replace(space, **change)
        assert type(copy) is FiniteMetricSpace and copy.structure is space.structure
        assert copy.dist.tobytes() == want
        assert magnitude(copy) == magnitude(space)
    other = np.array(space.dist)
    other[0, -1] = other[-1, 0] = np.nextafter(other[0, -1], np.inf)
    with pytest.raises(InvalidParams, match="differs from the one its structure builds"):
        dataclasses.replace(space, dist=other)
    dense = dataclasses.replace(space, structure=None)
    assert dense.structure is None and dense.dist.tobytes() == want


def test_large_line_nets_form_no_dense_matrix(tmp_path):
    """`magnitude --spec` of a 65,536-point interval net, whose dense matrix
    would take 32 GiB, and `approx` on interval and Cantor nets up to that
    size each finish in under 2 s and peak under 200 MiB.  At level 16 the
    Cantor net's smallest gap is 3^-15, and the verdict band calls it PSD."""
    n = 2**16
    spec = tmp_path / "interval.json"
    spec.write_text(json.dumps({"family": "interval_net",
                                "params": {"n": n, "length": n - 1.0}}))
    code = (
        "import json, re, sys, time\n"
        "from maglab.cli import run\n"
        "out = {}\n"
        "for name, argv in json.loads(sys.argv[1]).items():\n"
        "    start = time.perf_counter()\n"
        "    code = run(argv).exit_code\n"
        "    out[name] = (code, time.perf_counter() - start)\n"
        "with open('/proc/self/status') as fh:\n"
        "    out['peak_kib'] = int(re.search(r'VmHWM:\\s*(\\d+) kB', fh.read()).group(1))\n"
        "print(json.dumps(out))\n"
    )
    reports = {name: tmp_path / f"{name}.json" for name in ("magnitude", "interval", "cantor")}
    argvs = {
        "magnitude": ["magnitude", "--spec", str(spec)],
        "interval": ["approx", "--family", "interval", "--length", str(n - 1.0),
                     "--levels", f"2,257,{n}"],
        "cantor": ["approx", "--family", "cantor_net", "--levels", "3,16"],
    }
    argvs = {name: [*argv, "--json", str(reports[name])] for name, argv in argvs.items()}
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    for name in argvs:
        code, seconds = result[name]
        assert code == 0 and seconds < 2.0, (name, code, seconds)
    assert result["peak_kib"] < 200 * 1024
    mag = json.loads(reports["magnitude"].read_text())
    assert mag["magnitude"] == pytest.approx(1.0 + (n - 1) * math.tanh(0.5), rel=1e-12)
    assert len(mag["weighting"]) == n and mag["positively_weighted"]
    for r in json.loads(reports["interval"].read_text())["records"]:
        h = (n - 1.0) / (r["level"] - 1)
        expected = 1.0 + (r["level"] - 1) * math.tanh(h / 2.0)
        assert r["magnitude"] == pytest.approx(expected, rel=1e-12)
    cantor = json.loads(reports["cantor"].read_text())["records"]
    assert [r["n_points"] for r in cantor] == [8, n]
    assert cantor[0]["magnitude"] is not None
    assert cantor[1]["magnitude"] is None and "PositiveSemidefinite" in cantor[1]["failure"]


def test_weighting_of_one_point():
    space = _net("interval_net", n=1)
    assert _is_line(space)
    report = weighting(scale_space(space, 2.0))
    line = weighting(space)
    assert line.weighting.tolist() == report.weighting.tolist() == [1.0]
    # bisection finds the singular value 1 to within a few ulps
    diag = line.diagnostics
    assert diag.lambda_min == pytest.approx(1.0, rel=4 * np.finfo(float).eps, abs=0)
    assert diag.lambda_max == pytest.approx(1.0, rel=4 * np.finfo(float).eps, abs=0)
