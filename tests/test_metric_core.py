import itertools
import json
import math
import multiprocessing
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maglab import (
    FiniteMetricSpace,
    SpaceSpec,
    generate,
    scale_sweep,
    hausdorff_distance,
    load_distance_csv,
    lp_product,
    random_cloud_spec,
    scale_space,
    snowflake_space,
    validate_metric,
)
from maglab.errors import (
    EmptySubset,
    ExponentOutOfRange,
    InvalidMetric,
    InvalidParams,
    NonFiniteEntry,
    NonpositiveScale,
    NonSquareMatrix,
    UnsupportedFamily,
)

from maglab import metric_core
from maglab.metric_core import (
    _BAND,
    FAMILY_TABLE,
    TRIANGLE_SLACK,
    ValidationReport,
    _each,
    _lp_distances,
    _min_plus_square,
)

from conftest import random_cloud, stacked_lp_distances, stacked_lp_norm


def _brute_force_report(d):
    """validate_metric's fields by one pass over the pivots k, each a dense
    n x n excess matrix: the reference the min-plus square must match."""
    n = d.shape[0]
    offending = []
    worst_asym = float(np.abs(d - d.T).max()) if n > 1 else 0.0
    diag_bad = float(np.abs(np.diag(d)).max())
    off = d + np.diag([np.inf] * n)
    nonpos_off = bool(n > 1 and off.min() <= 0)
    slack = TRIANGLE_SLACK * max(1.0, float(np.abs(d).max()))
    worst_tri = 0.0
    for k in range(n):
        excess = d - (d[:, [k]] + d[[k], :])
        m = float(excess.max())
        if m > worst_tri:
            worst_tri = m
        if m > slack and len(offending) < 10:
            i, j = np.unravel_index(np.argmax(excess), excess.shape)
            offending.append((int(i), int(j), int(k)))
    ok = worst_asym <= slack and diag_bad == 0.0 and not nonpos_off and worst_tri <= slack
    return ok, worst_tri, worst_asym, offending


def _validation_corpus():
    """Seeded matrices, metric and not, symmetric and not, at sizes 1 to 200."""
    rng = np.random.default_rng(20100)

    def cloud(n, p):
        pts = rng.uniform(0.0, 4.0, size=(n, 2))
        return stacked_lp_distances(pts, pts, p)

    for n in (1, 2, 3, 63, 64, 65, 127, 128, 129, 200):
        for p in (0.5, 1.0, 2.0, math.inf):
            yield cloud(n, p)
        euclid = cloud(n, 2.0)
        if n >= 3:  # one side lengthened past a triangle
            broken = euclid.copy()
            broken[0, 1] = broken[1, 0] = (broken[0, 2:] + broken[2:, 1]).min() + 1.0
            yield broken
        if n >= 2:
            asym = euclid.copy()
            asym[n - 1, n // 2] += 1e-3
            yield asym
        negative = euclid.copy()
        negative[n // 2, n // 2] = -0.25
        yield negative
        yield rng.uniform(-1.0, 3.0, size=(n, n))
        yield np.ones((n, n)) - np.eye(n)  # every triangle is a tie
    for m in (3, 8, 11):
        axis = np.linspace(0.0, 1.0, m)
        grid = np.array([(x, y) for x in axis for y in axis])
        yield stacked_lp_distances(grid, grid, 1.0)


def _assert_matches_brute_force(d):
    report = validate_metric(d)
    fields = (
        report.ok,
        report.worst_triangle_violation,
        report.worst_asymmetry,
        report.offending_triples,
    )
    expected = _brute_force_report(d)
    assert fields == expected, d.shape
    assert repr(fields) == repr(expected), d.shape  # types and signed zeros


def _row_pass_min_plus(d):
    """The min-plus square one row of M at a time, each row an n x (n - i)
    sum reduced across k: the reference the tiled kernel must equal."""
    n = d.shape[0]
    symmetric = np.array_equal(d, d.T)
    m = np.full((n, n), np.inf)
    for i in range(n):
        j0 = i if symmetric else 0
        m[i, j0:] = (d[i, :, None] + d[:, j0:]).min(axis=0)
    return np.minimum(m, m.T) if symmetric else m


def _tile_side(n):
    return max(1, math.isqrt(metric_core._MIN_PLUS_TILE // n))


def _tile_corpus(sizes):
    """Per size: a Euclidean cloud, the same with a broken triangle, an
    asymmetric copy, and two tie-heavy matrices: an l_1 grid of integer
    points (rows x cols = n) and the all-ones metric."""
    rng = np.random.default_rng(19)
    for n in sizes:
        pts = rng.uniform(0.0, 4.0, size=(n, 2))
        euclid = stacked_lp_distances(pts, pts, 2.0)
        yield euclid
        if n >= 3:
            broken = euclid.copy()
            broken[n - 1, 0] = broken[0, n - 1] = euclid.max() * 3.0
            yield broken
        if n >= 2:
            asym = euclid.copy()
            asym[n // 2, n - 1] += 1e-3
            yield asym
        rows = max(r for r in range(1, math.isqrt(n) + 1) if n % r == 0)
        grid = np.array([(x, y) for x in range(rows) for y in range(n // rows)], dtype=float)
        yield stacked_lp_distances(grid, grid, 1.0)
        yield np.ones((n, n)) - np.eye(n)


class TestMinPlusTiles:
    @pytest.mark.parametrize("side", [1, 2, 3])
    def test_small_tiles(self, side, monkeypatch):
        for d in _tile_corpus((1, 2, 3, 4, 5, 6, 7, 9, 10)):
            n = d.shape[0]
            monkeypatch.setattr(metric_core, "_MIN_PLUS_TILE", side * side * n)
            assert _tile_side(n) == side
            assert np.array_equal(_min_plus_square(d), _row_pass_min_plus(d))
            _assert_matches_brute_force(d)

    def test_ragged_default_tiles(self):
        """At 50 and 51 points the default side is 51 and 50 (one tile
        short of, and one row past, a full tile); at 79, 80 and 81 it is 40
        (2b - 1, 2b and 2b + 1)."""
        assert [_tile_side(n) for n in (50, 51, 79, 80, 81)] == [51, 50, 40, 40, 40]
        for d in _tile_corpus((50, 51, 79, 80, 81)):
            assert np.array_equal(_min_plus_square(d), _row_pass_min_plus(d))
            _assert_matches_brute_force(d)

    @pytest.mark.parametrize("side", [1, 2, 3])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_counts(self, workers, side, monkeypatch):
        """Band counts below, equal to and above the worker count all give the
        row pass's M and the brute-force report."""
        monkeypatch.setattr(metric_core, "_cpus", lambda: workers)
        bands = set()
        for d in _tile_corpus((1, 2, 3, 4, 5, 6, 7, 9, 10)):
            n = d.shape[0]
            monkeypatch.setattr(metric_core, "_MIN_PLUS_TILE", side * side * n)
            bands.add(-(-n // side))
            assert np.array_equal(_min_plus_square(d), _row_pass_min_plus(d))
            _assert_matches_brute_force(d)
        assert min(bands) < workers or workers == 1
        assert workers in bands and max(bands) > workers

    def test_more_workers_than_cores(self, monkeypatch):
        """Eight threads taking 90 one-row bands, switching as often as the
        interpreter allows: a band lost or written twice would change M."""
        monkeypatch.setattr(metric_core, "_cpus", lambda: 8)
        monkeypatch.setattr(metric_core, "_MIN_PLUS_TILE", 90)
        rng = np.random.default_rng(8)
        d = rng.uniform(0.1, 1.0, size=(90, 90))  # asymmetric: every band is full width
        np.fill_diagonal(d, 0.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert np.array_equal(_min_plus_square(d), _row_pass_min_plus(d))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus_per_task", [1, 2, 3])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_each_keeps_item_order_and_raises_the_first_error(
            self, workers, cpus_per_task, monkeypatch):
        """One scratch object per worker, made by the calling thread; results
        in item order; of several failing items, the first one's error."""
        monkeypatch.setattr(metric_core, "_cpus", lambda: workers * cpus_per_task)
        makers = []

        def scratch():
            makers.append(threading.get_ident())
            return []

        def task(x, own):
            own.append(x)
            if x >= 3:
                raise ValueError(x)
            return x * x

        assert _each(task, range(3), scratch, cpus_per_task) == [0, 1, 4]
        assert makers == [threading.get_ident()] * workers
        with pytest.raises(ValueError, match="^3$"):
            _each(task, range(7), scratch, cpus_per_task)

    def test_700_point_cloud_matches_row_pass(self):
        rng = np.random.default_rng(700)
        pts = rng.uniform(0.0, 1.0, size=(700, 3))
        d = stacked_lp_distances(pts, pts, 2.0)
        perturbed = d * (1.0 + 1e-3 * rng.standard_normal(d.shape))
        for m in (d, perturbed):
            assert np.array_equal(_min_plus_square(m), _row_pass_min_plus(m))
        assert not np.array_equal(perturbed, perturbed.T)


def _validate_in_child(d, conn):
    conn.send(repr(validate_metric(d)))
    conn.close()


class TestValidateMetric:
    def test_forked_child_validates(self, monkeypatch):
        """A fork-context child of a process whose check has started its
        threads validates with threads of its own."""
        monkeypatch.setattr(metric_core, "_cpus", lambda: 2)
        pts = np.random.default_rng(300).uniform(0.0, 4.0, size=(300, 2))
        d = stacked_lp_distances(pts, pts, 2.0)
        expected = repr(validate_metric(d))
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=_validate_in_child, args=(d, send))
        with warnings.catch_warnings():
            # forking a process that has threads is what this test checks
            warnings.simplefilter("ignore", DeprecationWarning)
            child.start()
        try:
            send.close()
            assert receive.poll(60), "the child sent no report"
            assert receive.recv() == expected
            child.join(60)
            assert not child.is_alive() and child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join(10)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_near_float_max_entries_raise_no_warning(self, workers, monkeypatch):
        """Sums of two entries near the float maximum overflow to +inf, which
        is never the minimum that shows a violation, in the caller's thread
        or the pool's."""
        monkeypatch.setattr(metric_core, "_cpus", lambda: workers)
        d = np.full((60, 60), 1.5e308)
        np.fill_diagonal(d, 0.0)
        broken = d.copy()
        broken[0, 1:] = broken[1:, 0] = 1.0  # d[i, j] > d[i, 0] + d[0, j]: offending triples
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_metric(d) == ValidationReport(True, 0.0, 0.0, [])
            report = validate_metric(broken)
        assert not report.ok and report.offending_triples == [(1, 2, 0)]

    def test_overflowing_asymmetry_fails_without_warning(self):
        """d - d.T overflows to +inf on opposite entries near the float
        maximum, and +inf fails the symmetry check."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_metric([[0.0, 1e308], [-1e308, 0.0]])
        assert not report.ok and report.worst_asymmetry == math.inf

    def test_matches_brute_force(self):
        for d in _validation_corpus():
            _assert_matches_brute_force(d)

    def test_empty_matrix_rejected(self):
        with pytest.raises(InvalidParams, match="at least one point"):
            validate_metric(np.zeros((0, 0)))

    def test_two_point_ok(self):
        assert validate_metric([[0, 1], [1, 0]]).ok

    def test_asymmetry_flagged(self):
        report = validate_metric([[0, 1], [2, 0]])
        assert not report.ok
        assert report.worst_asymmetry == pytest.approx(1.0)

    def test_triangle_violation_flagged(self):
        report = validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        assert not report.ok
        assert report.worst_triangle_violation == pytest.approx(1.0)
        assert (0, 2, 1) in report.offending_triples

    def test_nonsquare_rejected(self):
        with pytest.raises(NonSquareMatrix):
            validate_metric([[0, 1, 2], [1, 0, 1]])

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteEntry):
            validate_metric([[0, np.inf], [np.inf, 0]])

    def test_zero_offdiagonal_rejected(self):
        assert not validate_metric([[0, 0], [0, 0]]).ok

    def test_memory_layout_keeps_the_report(self):
        d = np.random.default_rng(5).uniform(0.1, 1.0, size=(70, 70))  # asymmetric
        np.fill_diagonal(d, 0.0)
        expected = validate_metric(d)
        assert expected.offending_triples
        for same in (np.asfortranarray(d), np.ascontiguousarray(d.T).T):
            assert repr(validate_metric(same)) == repr(expected)


def _ref_interval(params, seed):
    length, n = float(params.get("length", 1.0)), params["n"]
    x = np.linspace(0.0, length, n) if n > 1 else np.array([0.0])
    return np.abs(x[:, None] - x[None, :]), x[:, None]


def _ref_chebyshev(params, seed):
    # the cosine-clustered net as a point_cloud_lp spec builds it (p = 2)
    length, n = float(params.get("length", 1.0)), params["n"]
    k = np.arange(n)
    pts = 0.5 * length * (1.0 - np.cos(math.pi * k / max(n - 1, 1)))
    x = np.asarray(pts.tolist(), dtype=float)[:, None]
    return stacked_lp_distances(x, x, 2.0), x


def _ref_circle(params, seed):
    circumference, n = float(params.get("circumference", 2 * math.pi)), params["n"]
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            frac = abs(i - j) / n
            d[i, j] = circumference * min(frac, 1.0 - frac)
    return d, None


def _ref_cantor(params, seed):
    pts = np.array([0.0, 1.0])
    for _ in range(params["level"] - 1):
        pts = np.concatenate([pts / 3.0, 2.0 / 3.0 + pts / 3.0])
    pts = np.sort(pts) * float(params.get("length", 1.0))
    return np.abs(pts[:, None] - pts[None, :]), pts[:, None]


def _ref_grid(params, seed):
    # the l_p sum of the axis metric |i - j| / (m - 1), pair by pair over the
    # integer offsets of the points' indices
    dim, p, m = params.get("n", 2), float(params.get("p", 2.0)), params["m"]
    axis = np.linspace(0.0, 1.0, m) if m > 1 else np.array([0.0])
    idx = list(itertools.product(range(m), repeat=dim))
    d = np.empty((len(idx), len(idx)))
    for a, u in enumerate(idx):
        for b, v in enumerate(idx):
            offsets = [abs(i - j) / max(m - 1, 1) for i, j in zip(u, v)]
            d[a, b] = stacked_lp_norm(np.array([offsets]), p)[0]
    return d, np.array([[axis[i] for i in u] for u in idx])


def _ref_sphere(params, seed):
    radius, n = float(params.get("radius", 1.0)), params["n"]
    z = [(n - 1 - 2 * i) / n for i in range(n)]
    rho = [math.sqrt(max(0.0, 1.0 - zi * zi)) for zi in z]
    phi = np.arange(n) * math.pi * (3.0 - math.sqrt(5.0))
    turns = np.cos(phi)
    cos = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            # the angle's cosine by the offset |i - j| of the Fibonacci turns
            cos[i, j] = rho[i] * rho[j] * turns[abs(i - j)] + z[i] * z[j]
    pts = np.stack([np.multiply(rho, turns), np.multiply(rho, np.sin(phi)), z], axis=1)
    return radius * np.arccos(np.clip(cos, -1.0, 1.0)), radius * pts


def _ref_hyperbolic(params, seed):
    r_max = float(params.get("r_max", 1.0))
    n_r, n_theta = params.get("n_r", 3), params.get("n_theta", 6)
    rs = [0.0] + [r_max * j / n_r for j in range(1, n_r + 1)]
    polar = [(0.0, 0.0)]
    for r in rs[1:]:
        for k in range(n_theta):
            polar.append((r, 2 * math.pi * k / n_theta))
    r = np.array([q[0] for q in polar])
    th = np.array([q[1] for q in polar])
    cosh_d = (
        np.cosh(r)[:, None] * np.cosh(r)[None, :]
        - np.sinh(r)[:, None] * np.sinh(r)[None, :] * np.cos(th[:, None] - th[None, :])
    )
    d = np.arccosh(np.maximum(1.0, cosh_d))
    np.fill_diagonal(d, 0.0)
    return d, None


def _ref_bipartite(params, seed):
    m, n, r = params["m"], params["n"], float(params.get("r", 1.0))
    d = np.zeros((m + n, m + n))
    for a in range(m + n):
        for b in range(m + n):
            if a != b:
                d[a, b] = r if (a < m) != (b < m) else 2.0 * r
    return d, None


def _ref_ultrametric(params, seed):
    n = params["n"]
    rng = np.random.default_rng(seed)
    d = np.zeros((n, n))
    clusters = [[i] for i in range(n)]
    height = 0.0
    while len(clusters) > 1:
        height += float(rng.uniform(0.1, 1.0))
        i, j = sorted(rng.choice(len(clusters), size=2, replace=False))
        for a in clusters[i]:
            for b in clusters[j]:
                d[a, b] = d[b, a] = 2.0 * height
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]
    return d, None


def _ref_weighted_tree(params, seed):
    n = params["n"]
    rng = np.random.default_rng(seed)
    d = np.zeros((n, n))
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        w = float(rng.uniform(0.5, 2.0))
        for j in range(i):
            d[i, j] = d[j, i] = d[parent, j] + w
        d[i, parent] = d[parent, i] = w
    return d, None


def _ref_point_cloud(params, seed):
    pts = np.asarray(params["points"], dtype=float)
    return stacked_lp_distances(pts, pts, float(params.get("p", 2.0))), pts


# family -> (reference generator, params of a net of about `size` points);
# the references fill distances by per-point or per-pair loops
_REFERENCE_FAMILIES = {
    "interval_net": (_ref_interval, lambda size, seed: {"length": 2.5, "n": size}),
    "interval_chebyshev_net": (
        _ref_chebyshev, lambda size, seed: {"length": 2.5, "n": size}
    ),
    "circle_net": (_ref_circle, lambda size, seed: {"circumference": 3.0, "n": size}),
    "cantor_net": (
        _ref_cantor, lambda size, seed: {"length": 1.5, "level": min(size, 6)}
    ),
    "grid_net": (
        _ref_grid,
        lambda size, seed: {"n": 2, "p": (1.0, 2.0, 0.5)[seed % 3], "m": min(size, 8)},
    ),
    "sphere_fibonacci_net": (
        _ref_sphere, lambda size, seed: {"radius": 2.0, "n": size}
    ),
    "hyperbolic_disk_net": (
        _ref_hyperbolic,
        lambda size, seed: {
            "r_max": 1.3, "n_r": min(size, 9), "n_theta": min(size + 3, 6)
        },
    ),
    "complete_bipartite": (
        _ref_bipartite, lambda size, seed: {"m": size, "n": size // 2 + 1, "r": 0.7}
    ),
    "ultrametric_tree": (_ref_ultrametric, lambda size, seed: {"n": size}),
    "weighted_tree": (_ref_weighted_tree, lambda size, seed: {"n": size}),
    "point_cloud_lp": (
        _ref_point_cloud,
        lambda size, seed: {
            "points": np.random.default_rng(seed).uniform(-1, 1, (size, 3)).tolist(),
            "p": (1.0, math.inf, 3.0)[seed % 3],
        },
    ),
}


class TestGeneratorsMatchReference:
    """Every family's generator gives the reference loops' bits."""

    @pytest.mark.parametrize("family", sorted(FAMILY_TABLE))
    def test_bit_identical(self, family):
        reference, params_for = _REFERENCE_FAMILIES[family]
        for size in (1, 2, 3, 60):
            for seed in (0, 3, 17):
                params = params_for(size, seed)
                for scale, snowflake in ((1.0, 1.0), (2.5, 0.5)):
                    spec = SpaceSpec(family, params, scale, snowflake, seed)
                    base, coords = reference(params, seed)
                    d = base if snowflake == 1.0 else base**snowflake
                    d = d if scale == 1.0 else scale * d
                    expected = FiniteMetricSpace(range(len(d)), d, coords=coords)
                    got = generate(spec)
                    assert got.dist.tobytes() == expected.dist.tobytes(), spec
                    if coords is None:
                        assert got.coords is None
                    else:
                        assert got.coords.tobytes() == expected.coords.tobytes()
                        assert got.coords.shape == expected.coords.shape


    @pytest.mark.parametrize("family,params", [
        ("circle_net", {"circumference": 3.0, "n": 150}),
        ("hyperbolic_disk_net", {"r_max": 1.3, "n_r": 15, "n_theta": 10}),
        ("sphere_fibonacci_net", {"radius": 2.0, "n": 150}),
    ])
    def test_bit_identical_past_one_band(self, family, params):
        """Nets built by bands of rows, or from one vector by offset, with
        more points than one band (`_BAND`) holds."""
        reference = _REFERENCE_FAMILIES[family][0]
        assert len(generate(SpaceSpec(family, params))) > _BAND
        for scale, snowflake in ((1.0, 1.0), (2.5, 0.5)):
            base, _ = reference(params, 0)
            expected = FiniteMetricSpace(range(len(base)), scale * base**snowflake)
            got = generate(SpaceSpec(family, params, scale, snowflake))
            assert got.dist.tobytes() == expected.dist.tobytes()


class TestGenerate:
    def test_interval_distances(self):
        s = generate(SpaceSpec("interval_net", {"length": 1.0, "n": 3}))
        assert sorted(set(np.round(s.dist.ravel(), 12))) == [0.0, 0.5, 1.0]

    def test_bipartite_k32(self):
        s = generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 1.0}))
        assert len(s) == 5
        cross = s.dist[0, 3]
        same = s.dist[0, 1]
        assert cross == pytest.approx(1.0)
        assert same == pytest.approx(2.0)

    def test_circle_quarter_arcs(self):
        s = generate(SpaceSpec("circle_net", {"circumference": 2 * math.pi, "n": 4}))
        vals = sorted(set(np.round(s.dist.ravel(), 12)))
        assert vals == pytest.approx([0.0, math.pi / 2, math.pi])

    def test_unknown_family(self):
        with pytest.raises(UnsupportedFamily):
            SpaceSpec("klein_bottle", {})

    def test_bad_params(self):
        with pytest.raises(InvalidParams):
            generate(SpaceSpec("interval_net", {"length": 1.0, "n": 0}))
        with pytest.raises(InvalidParams):
            generate(SpaceSpec("point_cloud_lp", {"points": [[0.0]], "p": -1}))

    def test_deterministic_regeneration(self):
        spec = SpaceSpec("ultrametric_tree", {"n": 12}, seed=99)
        a, b = generate(spec), generate(spec)
        assert a.dist.tobytes() == b.dist.tobytes()

    def test_null_seed_means_seed_zero(self):
        text = (
            '{"family": "ultrametric_tree", "params": {"n": 12}, '
            '"scale": 1.0, "snowflake": 1.0, "seed": null}'
        )
        a = generate(SpaceSpec.from_json(text))
        b = generate(SpaceSpec.from_json(text))
        zero = generate(SpaceSpec("ultrametric_tree", {"n": 12}, seed=0))
        assert a.dist.tobytes() == b.dist.tobytes() == zero.dist.tobytes()
        assert SpaceSpec("ultrametric_tree", {"n": 12}, seed=None).seed == 0

    @pytest.mark.parametrize(
        "spec",
        [
            SpaceSpec("interval_net", {"length": 2.0, "n": 17}),
            SpaceSpec("circle_net", {"circumference": 3.0, "n": 13}),
            SpaceSpec("cantor_net", {"length": 1.0, "level": 5}),
            SpaceSpec("grid_net", {"n": 2, "p": 1.5, "m": 5}),
            SpaceSpec("grid_net", {"n": 2, "p": 0.5, "m": 4}),
            SpaceSpec("sphere_fibonacci_net", {"radius": 2.0, "n": 40}),
            SpaceSpec("hyperbolic_disk_net", {"r_max": 1.0, "n_r": 2, "n_theta": 7}),
            SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 0.7}),
            SpaceSpec("ultrametric_tree", {"n": 9}, seed=3),
            SpaceSpec("weighted_tree", {"n": 9}, seed=4),
        ],
    )
    def test_every_family_is_a_metric(self, spec):
        assert validate_metric(generate(spec).dist).ok

    def test_ultrametric_inequality_exact(self):
        s = generate(SpaceSpec("ultrametric_tree", {"n": 10}, seed=17))
        d = s.dist
        n = len(s)
        for k in range(n):
            assert np.all(d <= np.maximum(d[:, [k]], d[[k], :]) + 1e-12)

    @pytest.mark.parametrize("snowflake", [0.0, -0.5, 1.5, math.nan])
    def test_snowflake_out_of_range(self, snowflake):
        with pytest.raises(InvalidParams, match="snowflake"):
            SpaceSpec("interval_net", {"n": 3}, snowflake=snowflake)

    @pytest.mark.parametrize("key", ["scale", "snowflake"])
    def test_bool_scale_or_snowflake_rejected(self, key):
        # True == 1 would pass the range checks, then fail the report schema
        with pytest.raises(InvalidParams, match=f"{key} must be a number"):
            SpaceSpec("interval_net", {"n": 3}, **{key: True})
        text = '{"family": "interval_net", "params": {"n": 3}, "%s": true}' % key
        with pytest.raises(InvalidParams, match=f"{key} must be a number"):
            SpaceSpec.from_json(text)

    # family -> (its other parameters, a real-valued parameter)
    REAL_PARAMS = {
        "interval_net": ({"n": 3}, "length"),
        "interval_chebyshev_net": ({"n": 3}, "length"),
        "circle_net": ({"n": 3}, "circumference"),
        "cantor_net": ({"level": 2}, "length"),
        "grid_net": ({"m": 3}, "p"),
        "sphere_fibonacci_net": ({"n": 3}, "radius"),
        "hyperbolic_disk_net": ({}, "r_max"),
        "complete_bipartite": ({"m": 2, "n": 1}, "r"),
        "point_cloud_lp": ({"points": [[0.0], [1.0]]}, "p"),
    }

    @pytest.mark.parametrize("family", sorted(REAL_PARAMS))
    def test_bool_real_param_rejected(self, family):
        # float(True) == 1.0 would build the space and serialize "true"
        params, key = self.REAL_PARAMS[family]
        with pytest.raises(InvalidParams, match=f"{key} must be a number"):
            generate(SpaceSpec(family, {**params, key: True}))

    @pytest.mark.parametrize("spec", [
        SpaceSpec("hyperbolic_disk_net", {"r_max": 1000.0, "n_r": 2, "n_theta": 3}),
        SpaceSpec("interval_net", {"n": 3, "length": math.inf}),
        SpaceSpec("interval_net", {"n": 5, "length": 1e308}, scale=2.0),
        SpaceSpec("point_cloud_lp", {"points": [[0.0], [math.nan], [1.0]]}),
    ])
    def test_nonfinite_distances_refused(self, spec):
        # the overflow or NaN itself raises no warning: the refusal says it
        with pytest.raises(NonFiniteEntry):
            generate(spec)

    def test_point_cloud_needs_a_list_of_points(self):
        with pytest.raises(InvalidParams, match="at least one point"):
            generate(SpaceSpec("point_cloud_lp", {"points": 1.0}))

    @pytest.mark.parametrize("p", [2.0, math.inf])
    @pytest.mark.parametrize("points", [[[]], [[], []]], ids=["one-point", "two-points"])
    def test_point_cloud_needs_a_coordinate(self, points, p):
        with pytest.raises(InvalidParams, match="^point_cloud_lp needs at least one coordinate$"):
            generate(SpaceSpec("point_cloud_lp", {"points": points, "p": p}))

    def test_default_labels_are_a_range(self, tmp_path):
        """Generated and loaded spaces keep the labels 0, ..., n - 1 as a
        range, which indexes, iterates and measures like the tuple; a
        subspace and an l_1 product still build tuples."""
        path = tmp_path / "m.csv"
        np.savetxt(path, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], delimiter=",")
        spaces = [
            generate(SpaceSpec("interval_net", {"n": 5})),
            generate(SpaceSpec("grid_net", {"m": 10, "n": 2, "p": 1.0})),
            load_distance_csv(path),
        ]
        for space in spaces:
            n = len(space)
            assert space.labels == range(n) and len(space.labels) == n
            assert tuple(space.labels) == tuple(range(n))
            assert (space.labels[1], space.labels[-1]) == (1, n - 1)
            assert space.labels.index(n - 1) == n - 1
            assert scale_space(space, 2.0).labels == range(n)
            assert space.subspace([2, 0]).labels == (2, 0)
        product = lp_product(spaces[0], spaces[2], 1.0)
        assert product.labels[:2] == ((0, 0), (0, 1)) and len(product.labels) == 15

    def test_snowflake_and_scale_applied(self):
        spec = SpaceSpec(
            "interval_net", {"length": 1.0, "n": 2}, scale=3.0, snowflake=0.5
        )
        assert generate(spec).dist[0, 1] == pytest.approx(3.0)


class TestFiniteMetricSpace:
    def test_rejects_nonsquare(self):
        with pytest.raises(NonSquareMatrix):
            FiniteMetricSpace((0, 1), [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]])

    def test_rejects_wrong_label_count(self):
        with pytest.raises(InvalidParams, match="label count"):
            FiniteMetricSpace((0, 1, 2), [[0.0, 1.0], [1.0, 0.0]])

    def test_rejects_zero_points(self):
        with pytest.raises(InvalidParams, match="at least one point"):
            FiniteMetricSpace((), np.zeros((0, 0)))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite_distance(self, value):
        with pytest.raises(NonFiniteEntry):
            FiniteMetricSpace((0, 1), [[0.0, value], [value, 0.0]])

    def test_only_the_upper_triangle_is_read(self):
        s = FiniteMetricSpace((0, 1), [[math.nan, 2.0], [math.inf, math.nan]])
        assert s.dist.tolist() == [[0.0, 2.0], [2.0, 0.0]]

    def test_empty_subspace(self, two_points):
        with pytest.raises(EmptySubset):
            two_points.subspace([])

    # a negative index would wrap, one past the end would reach numpy's
    # IndexError, and a repeated one would give two labels at distance 0
    @pytest.mark.parametrize("indices", [[-1], [4], [0, 0, 1], [1, 2.0], [True]])
    def test_subspace_rejects_bad_indices(self, indices):
        s = random_cloud(7, n_max=5)
        assert len(s) == 4
        with pytest.raises(InvalidParams):
            s.subspace(indices)

    def test_subspace_takes_numpy_indices(self):
        s = random_cloud(7, n_max=5)
        sub = s.subspace(np.array([3, 0]))
        assert sub.labels == (3, 0)
        assert sub.dist.tolist() == [[0.0, s.dist[3, 0]], [s.dist[0, 3], 0.0]]
        assert validate_metric(sub.dist).ok


    def test_identity_decides_equality_and_hashing(self):
        a, b = (generate(SpaceSpec("circle_net", {"n": 4})) for _ in range(2))
        assert a.dist.tobytes() == b.dist.tobytes()
        assert a == a and a != b
        assert {a: 1, b: 2}[a] == 1 and hash(a) != hash(b)


class TestSymmetrized:
    """`_symmetrized` builds the old two-array formula's bits in one copy."""

    @staticmethod
    def _reference(d):
        d = np.triu(d, 1)
        return d + d.T

    @staticmethod
    def _matrix(n, seed):
        """Random entries with a signed zero, a random diagonal, and non-finite
        values in the lower triangle alone."""
        rng = np.random.default_rng(seed)
        d = rng.uniform(-1.0, 1.0, size=(n, n))
        d[rng.random((n, n)) < 0.1] = -0.0
        lower = np.tril_indices(n, -1)
        pick = rng.random(len(lower[0])) < 0.1
        d[lower[0][pick], lower[1][pick]] = rng.choice([math.nan, math.inf, -math.inf], pick.sum())
        return d

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 200])
    def test_bits_of_the_two_array_formula(self, n):
        d = self._matrix(n, n)
        before = d.tobytes()
        out = metric_core._symmetrized(d)
        assert d.tobytes() == before  # the caller's array is never written
        assert not out.flags.writeable and out.flags.c_contiguous
        assert out.tobytes() == self._reference(d).tobytes()
        assert not np.signbit(out[out == 0]).any()  # an upper -0.0 becomes +0.0

    def test_fortran_order_and_integer_input(self):
        d = self._matrix(70, 1)
        assert metric_core._symmetrized(np.asfortranarray(d)).tobytes() == \
            metric_core._symmetrized(d).tobytes()
        ints = np.arange(16).reshape(4, 4)
        assert metric_core._symmetrized(ints).tobytes() == self._reference(ints.astype(float)).tobytes()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("i, j", [(0, 1), (0, 99), (70, 71), (98, 99)])
    def test_nonfinite_upper_entry_raises(self, value, i, j):
        d = np.ones((100, 100))
        d[i, j] = value
        with pytest.raises(NonFiniteEntry):
            metric_core._symmetrized(d)

    def test_peak_is_one_copy(self):
        """At n = 400, the peak above the input is the copy and a band's
        temporaries, where the two-array formula holds two n x n arrays."""
        import tracemalloc

        d = self._matrix(400, 2)
        size = d.nbytes
        tracemalloc.start()
        try:
            out = metric_core._symmetrized(d)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            self._reference(d)
            _, old_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.nbytes == size
        assert peak < 1.25 * size
        assert old_peak > 2 * size


class TestTransforms:
    def test_scale_two_points(self, two_points):
        assert scale_space(two_points, 2.0).dist[0, 1] == 2.0

    def test_scale_identity(self, two_points):
        assert np.array_equal(scale_space(two_points, 1.0).dist, two_points.dist)

    def test_scale_inverse(self):
        s = random_cloud(11)
        back = scale_space(scale_space(s, 2.0), 0.5)
        assert np.abs(back.dist - s.dist).max() <= 1e-15 * s.dist.max()

    def test_scale_rejects_nonpositive(self, two_points):
        with pytest.raises(NonpositiveScale):
            scale_space(two_points, 0.0)

    def test_snowflake_identity(self, two_points):
        assert np.array_equal(snowflake_space(two_points, 1.0).dist, two_points.dist)

    def test_snowflake_sqrt(self):
        s = FiniteMetricSpace((0, 1), [[0, 4.0], [4.0, 0]])
        assert snowflake_space(s, 0.5).dist[0, 1] == pytest.approx(2.0)

    def test_snowflake_rejects_large_exponent(self, two_points):
        with pytest.raises(ExponentOutOfRange):
            snowflake_space(two_points, 1.5)

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_scale_snowflake_commute(self, seed):
        s = random_cloud(seed, n_max=6)
        lhs = snowflake_space(scale_space(s, 4.0), 0.5)
        rhs = scale_space(snowflake_space(s, 0.5), 2.0)
        assert np.abs(lhs.dist - rhs.dist).max() <= 1e-12


def _two_term_product(da, db, q):
    """The l_q product as defined, (d_A^q + d_B^q)^(1/q), with max at q = inf."""
    if math.isinf(q):
        d = np.maximum(da[:, None, :, None], db[None, :, None, :])
    else:
        d = (da[:, None, :, None] ** q + db[None, :, None, :] ** q) ** (1.0 / q)
    n = len(da) * len(db)
    return d.reshape(n, n)


def _stacked_sum(factors, p):
    """The l_p sum of the factor matrices, first slowest, by `stacked_lp_norm`
    over the (N, N, k) stack of their distances."""
    idx = np.indices([len(f) for f in factors]).reshape(len(factors), -1)
    return stacked_lp_norm(np.stack([f[i[:, None], i] for f, i in zip(factors, idx)], axis=-1), p)


class TestLpNorm:
    @pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 1.5, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("dim", range(1, 8))
    def test_matches_stacked_reference(self, p, dim):
        # boxes of 1e+-160 and 1e+-300 reach the redo of out-of-range power sums
        rng = np.random.default_rng(dim)
        for box in (1.0, 1e160, 1e-160, 1e300, 1e-300):
            x, y = rng.uniform(-box, box, (20, dim)), rng.uniform(-box, box, (15, dim))
            trials = rng.uniform(-box, box, (30, 6, dim))
            for a, b in ((x, x), (x, y), (trials, trials)):
                got, expected = _lp_distances(a, b, p), stacked_lp_distances(a, b, p)
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes(), (box, a.shape, b.shape)

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, math.inf, 1000.0])
    def test_grid_matches_stacked_factors(self, p):
        for m, n in ((1, 2), (2, 7), (5, 2), (3, 5), (4, 4)):
            k = np.arange(m)
            d = _stacked_sum([np.abs(k[:, None] - k) / max(m - 1, 1)] * n, p)
            for scale, snowflake in ((1.0, 1.0), (2.5, 0.5)):
                grid = generate(SpaceSpec("grid_net", {"m": m, "n": n, "p": p}, scale, snowflake))
                assert grid.dist.tobytes() == (d**snowflake * scale).tobytes(), (m, n)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, math.inf, 1000.0])
    def test_product_matches_stacked_factors(self, q):
        for box in (1.0, 1e-160, 1e160):
            for n in range(1, 6):
                a = generate(random_cloud_spec(n, 2, seed=n, box=box))
                b = generate(random_cloud_spec(6 - n, 3, seed=10 + n, box=box))
                d = _stacked_sum([a.dist, b.dist], q)
                assert lp_product(a, b, q).dist.tobytes() == d.tobytes(), (box, n)

    def test_tiny_coordinates_keep_their_distance(self):
        space = generate(SpaceSpec("point_cloud_lp", {"points": [[0, 0], [3e-170, 4e-170]]}))
        assert space.dist[0, 1] == pytest.approx(5e-170, rel=1e-15, abs=0)

    def test_huge_coordinates_keep_their_distance(self):
        space = generate(SpaceSpec("point_cloud_lp", {"points": [[0.0], [1e200]]}))
        assert space.dist[0, 1] == 1e200

    def test_large_p_separates_every_pair(self):
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(8, 3))
        space = generate(SpaceSpec("point_cloud_lp", {"points": pts.tolist(), "p": 1000.0}))
        linf = stacked_lp_distances(pts, pts, math.inf)
        off = ~np.eye(8, dtype=bool)
        assert np.all(space.dist[off] >= linf[off])
        assert np.all(space.dist[off] <= linf[off] * 3 ** 0.001)

    @pytest.mark.parametrize("k", [-1000, -600, 0, 600, 1000])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 8.0, 1000.0, 1e308])
    def test_homogeneous(self, k, p):
        rng = np.random.default_rng(3)
        x, y = rng.uniform(-1.0, 1.0, size=(30, 3)), rng.uniform(-1.0, 1.0, size=(20, 3))
        c = 2.0**k
        scaled = _lp_distances(c * x, c * y, p)
        assert np.all(scaled > 0)
        np.testing.assert_allclose(scaled, c * _lp_distances(x, y, p), rtol=1e-14, atol=0)


class TestLpProduct:
    def test_taxicab_two_by_two(self, two_points):
        prod = lp_product(two_points, two_points, 1.0)
        vals = sorted(np.round(prod.dist[np.triu_indices(4, 1)], 12))
        assert vals == [1.0, 1.0, 1.0, 1.0, 2.0, 2.0]

    def test_singleton_factor_isometric(self):
        single = FiniteMetricSpace(("x",), [[0.0]])
        s = random_cloud(23)
        prod = lp_product(single, s, 2.0)
        assert np.array_equal(prod.dist, s.dist)

    def test_similarity_factorizes_for_l1(self):
        from maglab import similarity

        a = generate(random_cloud_spec(3, 2, p=1.0, seed=1))
        b = generate(random_cloud_spec(3, 2, p=1.0, seed=2))
        prod = lp_product(a, b, 1.0)
        expected = np.kron(similarity(a), similarity(b))
        assert np.abs(similarity(prod) - expected).max() <= 1e-14

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_matches_two_term_formula(self, q):
        for n in range(1, 7):
            a = generate(random_cloud_spec(n, 2, seed=n))
            b = generate(random_cloud_spec(7 - n, 3, seed=10 + n))
            prod = lp_product(a, b, q)
            assert prod.dist.tobytes() == _two_term_product(a.dist, b.dist, q).tobytes()

    def test_power_sums_out_of_range(self):
        # 0.3**1000 underflows: each factor alone must still count
        near = FiniteMetricSpace((0, 1), [[0.0, 0.3], [0.3, 0.0]])
        prod = lp_product(near, near, 1000.0)
        off = prod.dist[~np.eye(4, dtype=bool)]
        assert off.min() == 0.3
        assert off.max() == pytest.approx(0.3 * 2 ** 0.001, rel=1e-15, abs=0)

    def test_rejects_q_below_one(self, two_points):
        with pytest.raises(ExponentOutOfRange):
            lp_product(two_points, two_points, 0.5)


class TestHausdorff:
    def test_equal_subsets_zero(self):
        s = random_cloud(31)
        assert hausdorff_distance(range(len(s)), range(len(s)), s) == 0.0

    def test_two_singletons(self, two_points):
        assert hausdorff_distance([0], [1], two_points) == 1.0

    def test_every_other_point_interval(self):
        s = generate(SpaceSpec("interval_net", {"length": 1.0, "n": 11}))
        full, half = list(range(11)), list(range(0, 11, 2))
        # independent brute force over all pairs
        expected = max(
            max(min(s.dist[i, j] for j in half) for i in full),
            max(min(s.dist[i, j] for i in full) for j in half),
        )
        assert hausdorff_distance(full, half, s) == pytest.approx(expected)
        assert expected == pytest.approx(0.1)

    def test_empty_subset_rejected(self, two_points):
        with pytest.raises(EmptySubset):
            hausdorff_distance([], [0], two_points)

    @pytest.mark.parametrize("i_set, j_set", [([-1], [0]), ([0], [2]), ([0], [0.5])])
    def test_bad_index_rejected(self, two_points, i_set, j_set):
        with pytest.raises(InvalidParams, match="index must be an integer"):
            hausdorff_distance(i_set, j_set, two_points)

    def test_repeated_indices_are_one_set(self, two_points):
        assert hausdorff_distance([0, 0], [1, 1], two_points) == 1.0

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_metric_axioms_on_subsets(self, seed):
        rng = np.random.default_rng(seed)
        s = random_cloud(seed, n_max=9)
        n = len(s)
        subs = [
            sorted(set(rng.integers(0, n, size=rng.integers(1, n + 1)).tolist()))
            for _ in range(3)
        ]
        a, b, c = subs
        dab = hausdorff_distance(a, b, s)
        dba = hausdorff_distance(b, a, s)
        dbc = hausdorff_distance(b, c, s)
        dac = hausdorff_distance(a, c, s)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dac <= dab + dbc + 1e-12


class TestCantorNesting:
    def test_levels_nest(self):
        fine = generate(SpaceSpec("cantor_net", {"length": 1.0, "level": 6}))
        coarse = generate(SpaceSpec("cantor_net", {"length": 1.0, "level": 5}))
        fine_pts = set(np.round(fine.coords[:, 0], 12))
        assert set(np.round(coarse.coords[:, 0], 12)) <= fine_pts

    def test_gap_to_deeper_levels(self):
        # the k-level net covers the limit endpoint set to within l/3^k
        length = 1.0
        k = 4
        coarse = generate(SpaceSpec("cantor_net", {"length": length, "level": k}))
        deep = generate(SpaceSpec("cantor_net", {"length": length, "level": 10}))
        cx, dx = coarse.coords[:, 0], deep.coords[:, 0]
        gap = max(np.abs(dx[:, None] - cx[None, :]).min(axis=1))
        assert gap <= length / 3**k + 1e-12
        assert gap >= length / 3 ** (k + 1)


class TestSerialization:
    def test_spec_json_text(self):
        spec = SpaceSpec("weighted_tree", {"n": 5}, scale=2.5, snowflake=0.5, seed=3)
        assert spec.to_json() == (
            '{"family": "weighted_tree", "params": {"n": 5}, '
            '"scale": 2.5, "snowflake": 0.5, "seed": 3}'
        )

    def test_with_params_keeps_other_fields(self):
        spec = SpaceSpec("grid_net", {"n": 2, "m": 4}, scale=2.5, snowflake=0.5, seed=9)
        finer = spec.with_params(m=8, p=1.0)
        assert finer == SpaceSpec(
            "grid_net", {"n": 2, "m": 8, "p": 1.0}, scale=2.5, snowflake=0.5, seed=9
        )
        assert spec.params == {"n": 2, "m": 4}

    def test_spec_json_round_trip(self):
        spec = SpaceSpec(
            "grid_net", {"n": 2, "p": 1.0, "m": 4}, scale=2.0, snowflake=0.5, seed=7
        )
        assert SpaceSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("numpy_spec,plain_spec", [
        (SpaceSpec("interval_net", {"n": np.int64(5)}, seed=np.int64(2)),
         SpaceSpec("interval_net", {"n": 5}, seed=2)),
        (SpaceSpec("point_cloud_lp", {"points": np.array([[0.0, 1.0], [2.0, 0.5]]),
                                      "p": np.float64(1.0)}),
         SpaceSpec("point_cloud_lp", {"points": [[0.0, 1.0], [2.0, 0.5]], "p": 1.0})),
    ])
    def test_numpy_values_serialize(self, numpy_spec, plain_spec):
        text = numpy_spec.to_json()
        assert text == plain_spec.to_json()
        assert SpaceSpec.from_json(text) == plain_spec
        sweep = scale_sweep(generate(numpy_spec), [1.0, 2.0])
        assert sweep.spec == text
        assert json.loads(sweep.spec)["params"] == plain_spec.params

    def test_csv_loader_accepts_valid(self, tmp_path):
        path = tmp_path / "m.csv"
        np.savetxt(path, [[0, 1], [1, 0]], delimiter=",")
        s = load_distance_csv(path)
        assert s.dist[0, 1] == 1.0

    def test_csv_loader_rejects_invalid(self, tmp_path):
        path = tmp_path / "bad.csv"
        np.savetxt(path, [[0, 1, 3], [1, 0, 1], [3, 1, 0]], delimiter=",")
        with pytest.raises(InvalidMetric):
            load_distance_csv(path)
        forced = load_distance_csv(path, force=True)
        assert len(forced) == 3
