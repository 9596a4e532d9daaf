import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maglab import (
    FiniteMetricSpace,
    SpaceSpec,
    generate,
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

from maglab.metric_core import TRIANGLE_SLACK, _lp_distances

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

    def test_snowflake_and_scale_applied(self):
        spec = SpaceSpec(
            "interval_net", {"length": 1.0, "n": 2}, scale=3.0, snowflake=0.5
        )
        assert generate(spec).dist[0, 1] == pytest.approx(3.0)


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
    def test_spec_json_round_trip(self):
        spec = SpaceSpec(
            "grid_net", {"n": 2, "p": 1.0, "m": 4}, scale=2.0, snowflake=0.5, seed=7
        )
        assert SpaceSpec.from_json(spec.to_json()) == spec

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
