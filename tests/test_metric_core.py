import json
import math

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

from maglab.metric_core import FAMILY_TABLE, TRIANGLE_SLACK, _lp_distances

from conftest import random_cloud


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
    """Seeded matrices, metric and not, at sizes around k-block edges."""
    rng = np.random.default_rng(20100)

    def cloud(n, p):
        pts = rng.uniform(0.0, 4.0, size=(n, 2))
        return _lp_distances(pts, pts, p)

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
        yield _lp_distances(grid, grid, 1.0)


class TestValidateMetric:
    def test_matches_brute_force(self):
        for d in _validation_corpus():
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


def _ref_interval(params, seed):
    length, n = float(params.get("length", 1.0)), params["n"]
    x = np.linspace(0.0, length, n) if n > 1 else np.array([0.0])
    return np.abs(x[:, None] - x[None, :]), x[:, None]


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
    dim, p, m = params.get("n", 2), float(params.get("p", 2.0)), params["m"]
    axis = np.linspace(0.0, 1.0, m) if m > 1 else np.array([0.0])
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    return _lp_distances(pts, pts, p), pts


def _ref_sphere(params, seed):
    radius, n = float(params.get("radius", 1.0)), params["n"]
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    rho = np.sqrt(np.maximum(0.0, 1.0 - z**2))
    pts = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    return radius * np.arccos(np.clip(pts @ pts.T, -1.0, 1.0)), radius * pts


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
    return _lp_distances(pts, pts, float(params.get("p", 2.0))), pts


# family -> (reference generator, params of a net of about `size` points);
# the references fill distances by per-point or per-pair loops
_REFERENCE_FAMILIES = {
    "interval_net": (_ref_interval, lambda size, seed: {"length": 2.5, "n": size}),
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

    def test_q_inf_is_max(self):
        a, b = random_cloud(5), random_cloud(6)
        prod = lp_product(a, b, math.inf)
        expected = np.maximum(a.dist[:, None, :, None], b.dist[None, :, None, :])
        assert np.array_equal(prod.dist, expected.reshape(len(prod), len(prod)))

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
