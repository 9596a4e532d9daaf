import math

import numpy as np
import pytest

from maglab import (
    SpaceSpec,
    approx_magnitude,
    chebyshev_interval,
    fourier_upper_bound_1d,
    gamma_hat_1d,
    generate,
    growth_bound_study,
    growth_lower_bound,
    lp_ball_volume,
    product_counterexample_experiment,
    witness_search,
)
from maglab.analysis import (
    WITNESS_MAX_POINTS, WITNESS_SCALES, WitnessSearchResult, _cosine_transform,
)
from maglab.errors import InvalidParams, QuadratureDivergence
from maglab.magnitude import _spectrum, similarity


def _trapezoid_cosine(f, x, omegas):
    """Reference: 2 * trapezoid(f(x) cos(2 pi x w)) one frequency at a time."""
    return np.array(
        [2.0 * np.trapezoid(f * np.cos(2.0 * math.pi * w * x), x) for w in omegas]
    )


class TestCosineTransform:
    @pytest.mark.parametrize(
        "x,omegas",
        [
            # gamma_hat_1d's grid: x[0] = 0, power-of-two N, w on k / (2L)
            (np.linspace(0.0, 40.0, 2**12 + 1), np.arange(321) / 80.0),
            # odd N, w off the k / (2L) lattice (step 0.01 at L = 40)
            (np.linspace(0.0, 40.0, 2**12 + 2), np.linspace(0.0, 4.0, 401)),
            # power-of-two N, nonzero and negative w[0]
            (np.linspace(0.0, 7.0, 2**10), np.linspace(-1.3, 2.9, 57)),
            # the symmetric bump grid: x[0] < 0, nonzero w[0]
            (0.75 * np.linspace(-1.0, 1.0, 4097)[1:-1], np.linspace(0.3, 20.0, 2001)),
            # N + M - 1 one past a power of two, the tightest FFT padding
            (np.linspace(0.0, 5.0, 1000), np.linspace(0.0, 2.5, 26)),
            # shorter than the frequency grid
            (np.linspace(-2.0, 3.0, 5), np.linspace(0.0, 1.0, 11)),
        ],
    )
    def test_matches_trapezoid_reference(self, x, omegas):
        f = np.exp(-np.abs(x) ** 1.5)
        got = _cosine_transform(f, x, omegas)
        assert np.abs(got - _trapezoid_cosine(f, x, omegas)).max() <= 1e-12


class TestApproxMagnitude:
    def test_interval_families_agree(self):
        levels = [11, 101, 501]
        uni = approx_magnitude(SpaceSpec("interval_net", {"length": 2.0}), levels)
        che = approx_magnitude(chebyshev_interval(2.0), levels)
        assert uni.monotone and che.monotone
        assert uni.extrapolated_limit == pytest.approx(2.0, abs=1e-3)
        assert abs(uni.extrapolated_limit - che.extrapolated_limit) <= 1e-3

    def test_cantor_magnitudes_nondecreasing(self):
        study = approx_magnitude(
            SpaceSpec("cantor_net", {"length": 1.0}), levels=range(4, 9)
        )
        assert study.monotone
        mags = [r.magnitude for r in study.records]
        assert mags[-1] - mags[-2] < 1e-4

    def test_singleton_family_constant(self):
        study = approx_magnitude(
            SpaceSpec("interval_net", {"length": 1.0}), levels=[1, 1, 1]
        )
        assert all(r.magnitude == pytest.approx(1.0) for r in study.records)

    def test_quadrature_value_is_lower_bound(self):
        levels = [21, 81]
        interval = SpaceSpec("interval_net", {"length": 1.0})
        solve = approx_magnitude(interval, levels)
        quad = approx_magnitude(interval, levels, quadrature=True)
        for a, b in zip(quad.records, solve.records):
            assert a.magnitude <= b.magnitude + 1e-12

    def test_net_magnitudes_below_limit(self):
        study = approx_magnitude(
            SpaceSpec("interval_net", {"length": 2.0}), [11, 101, 501]
        )
        for r in study.records:
            assert r.magnitude <= study.extrapolated_limit + 1e-6

    def test_sphere_gap_is_geodesic(self):
        template = SpaceSpec("sphere_fibonacci_net", {"radius": 2.0})
        study = approx_magnitude(template, [50, 400])
        coarse, fine = (generate(template.with_params(n=n)).coords / 2.0 for n in (50, 400))
        cross = 2.0 * np.arccos(np.clip(coarse @ fine.T, -1.0, 1.0))
        hausdorff = max(cross.min(axis=1).max(), cross.min(axis=0).max())
        assert study.records[0].gap == pytest.approx(hausdorff, rel=1e-12)
        assert study.records[0].gap == pytest.approx(2 * 0.377278686518, rel=1e-11)
        assert study.records[1].gap == 0.0

    def test_indefinite_level_recorded_not_raised(self):
        # bipartite spaces scaled far down are indefinite; the study keeps going
        def family(level):
            return SpaceSpec(
                "complete_bipartite", {"m": 3, "n": level, "r": 1.0}, scale=0.01
            )

        study = approx_magnitude(family, [2, 3])
        assert all(r.failure is not None for r in study.records)

    def test_family_without_refinement_parameter(self):
        k32 = SpaceSpec("complete_bipartite", {"m": 3, "n": 2})
        with pytest.raises(InvalidParams, match="no refinement parameter"):
            approx_magnitude(k32, [2, 3])

    def test_empty_levels(self):
        with pytest.raises(InvalidParams, match="nonempty"):
            approx_magnitude(SpaceSpec("interval_net", {}), [])

    @pytest.mark.parametrize("template", [
        SpaceSpec("circle_net", {}),  # no coordinates
        SpaceSpec("grid_net", {"n": 2}),  # 2-D coordinates
    ])
    def test_quadrature_needs_1d_coordinates(self, template):
        with pytest.raises(InvalidParams, match="1-D ambient coordinates"):
            approx_magnitude(template, [3, 4], quadrature=True)


class TestBallVolume:
    def test_diamond(self):
        assert lp_ball_volume(2, 1.0) == pytest.approx(2.0)

    def test_disk(self):
        assert lp_ball_volume(2, 2.0) == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, math.inf])
    def test_interval(self, p):
        assert lp_ball_volume(1, p) == pytest.approx(2.0)

    def test_cube(self):
        assert lp_ball_volume(3, math.inf) == pytest.approx(8.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cube_is_exact(self, n):
        # the general formula at p = inf: 1/p = 0 and Gamma(1) = 1
        assert lp_ball_volume(n, math.inf) == 2.0**n

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            lp_ball_volume(0, 1.0)


class TestGrowthLowerBound:
    def test_l1_plane(self):
        for t in (1.0, 3.0, 10.0):
            assert growth_lower_bound(2, 1.0, 1.0, 1.0, t) == pytest.approx(
                t**2 / 4.0
            )

    def test_line_segment(self):
        for t in (1.0, 7.0):
            assert growth_lower_bound(1, 2.0, 1.0, 3.0, t) == pytest.approx(
                3.0 * t / 2.0
            )

    def test_vanishes_at_zero(self):
        assert growth_lower_bound(2, 1.0, 1.0, 1.0, 0.0) == 0.0

    @pytest.mark.parametrize("n,p,alpha,vol_a,t", [
        (0, 1.0, 1.0, 1.0, 1.0), (2, 0.0, 1.0, 1.0, 1.0), (2, 1.0, 0.0, 1.0, 1.0),
        (2, 1.0, 1.5, 1.0, 1.0), (2, 1.0, 1.0, 0.0, 1.0), (2, 1.0, 1.0, 1.0, -1.0),
    ])
    def test_rejects_out_of_range(self, n, p, alpha, vol_a, t):
        with pytest.raises(InvalidParams):
            growth_lower_bound(n, p, alpha, vol_a, t)


class TestGrowthBoundStudy:
    def test_l1_square_bounds(self):
        study = growth_bound_study(
            SpaceSpec("grid_net", {"n": 2, "p": 1.0, "m": 21}), [4.0, 8.0]
        )
        for check in study.checks:
            assert check.satisfied
            # the l1 product identity gives the solid square's magnitude
            # (1 + t/2)^2, an upper envelope for any net
            assert check.net_magnitude <= (1 + check.t / 2) ** 2 * 1.05

    def test_requires_grid_template(self):
        with pytest.raises(InvalidParams):
            growth_bound_study(SpaceSpec("interval_net", {"n": 5}), [1.0])


class TestGammaHat:
    def test_p1_closed_form(self):
        rep = gamma_hat_1d(1.0)
        exact = 2.0 / (1.0 + 4.0 * math.pi**2 * rep.grid**2)
        assert np.abs(rep.values - exact).max() <= 1e-6

    def test_p2_closed_form(self):
        rep = gamma_hat_1d(2.0)
        exact = math.sqrt(math.pi) * np.exp(-(math.pi**2) * rep.grid**2)
        assert np.abs(rep.values - exact).max() <= 1e-6

    @pytest.mark.parametrize("p,kwargs", [(0.5, {"L": 700.0, "N": 2**20}), (1.5, {})])
    def test_stable_exponents_positive_decreasing(self, p, kwargs):
        rep = gamma_hat_1d(p, **kwargs)
        assert rep.positive
        assert rep.radially_decreasing
        assert rep.fitted_c > 0

    def test_heavy_tail_needs_larger_window(self):
        with pytest.raises(QuadratureDivergence):
            gamma_hat_1d(0.5)  # default L truncates far too early

    def test_invalid_p(self):
        with pytest.raises(InvalidParams):
            gamma_hat_1d(2.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"N": 0},
            {"N": -3},
            {"L": -5.0},
            {"L": 0.0},
            {"n_omega": 1},
            {"n_omega": 0},
            {"omega_max": 0.0},
            {"omega_max": -1.0},
        ],
    )
    def test_invalid_grid(self, kwargs):
        with pytest.raises(InvalidParams):
            gamma_hat_1d(1.0, **kwargs)


class TestFourierUpperBound:
    def test_bounds_interval_magnitude(self):
        # |[0,2]| = 2 in the line metric; the quotient must sit above it
        for p in (1.0, 2.0):
            result = fourier_upper_bound_1d(2.0, p, 1.0, 4.0)
            assert result.bound >= 2.0

    def test_heavy_tail_kernel_uses_given_window(self):
        # r = 0.5 truncates past tolerance at the default L = 40
        with pytest.raises(QuadratureDivergence):
            fourier_upper_bound_1d(2.0, 0.5, 1.0, 4.0)
        result = fourier_upper_bound_1d(2.0, 0.5, 1.0, 4.0, L=700.0)
        assert math.isfinite(result.bound) and result.bound >= 2.0

    def test_singleton(self):
        result = fourier_upper_bound_1d(0.0, 2.0, 1.0, 1.0)
        assert result.bound >= 1.0

    def test_requires_radius_beyond_interval(self):
        with pytest.raises(InvalidParams):
            fourier_upper_bound_1d(2.0, 1.0, 1.0, 2.0)

    @pytest.mark.parametrize("length,p,alpha", [
        (2.0, 0.0, 1.0), (2.0, 2.5, 1.0), (2.0, 1.0, 0.0), (2.0, 1.0, 1.5), (-1.0, 1.0, 1.0),
    ])
    def test_rejects_out_of_range(self, length, p, alpha):
        with pytest.raises(InvalidParams):
            fourier_upper_bound_1d(length, p, alpha, 4.0)


class TestProductCounterexample:
    def test_not_stably_pd(self):
        rep = product_counterexample_experiment()
        assert rep.classification == "NotStablyPD"
        assert rep.failing_scales
        worst = min(r.lambda_min for r in rep.records)
        assert worst < 0

    def test_cross_pair_distance(self):
        from maglab import lp_product

        cross = SpaceSpec(
            "point_cloud_lp",
            {"points": [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]], "p": 1.0},
        )
        factor = generate(cross)
        product = lp_product(factor, factor, q=2.0)
        assert len(product) == 25
        i = product.labels.index((0, 1))
        j = product.labels.index((1, 0))  # differs by 1 in each factor
        assert product.dist[i, j] == pytest.approx(math.sqrt(2.0))


class TestWitnessSearch:
    def test_l2_has_no_witness(self):
        result = witness_search(p=2.0, n=3, budget=300, seed=1)
        assert not result.found
        assert result.subsets_tested == 300

    def test_linf_witness_regression(self):
        # seeded search reproducibly finds a non-PD subset of l_inf^3
        result = witness_search(p=math.inf, n=3, budget=400, seed=0)
        assert result.found
        assert result.witness_lambda_min < 0

    def test_zero_budget(self):
        result = witness_search(p=math.inf, n=3, budget=0, seed=0)
        assert not result.found
        assert result.subsets_tested == 0

    def test_rejects_negative_budget(self):
        with pytest.raises(InvalidParams, match="budget"):
            witness_search(p=math.inf, n=3, budget=-1, seed=0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_dimension_below_one(self, n):
        with pytest.raises(InvalidParams):
            witness_search(p=math.inf, n=n, budget=10, seed=0)

    @pytest.mark.parametrize("p", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("budget", [0, 3])
    def test_rejects_nonpositive_p_whatever_the_budget(self, p, budget):
        with pytest.raises(InvalidParams):
            witness_search(p=p, n=3, budget=budget, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "0"])
    def test_rejects_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(InvalidParams):
            witness_search(p=2.0, n=3, budget=3, seed=seed)


def reference_witness_search(p, n, budget, seed=0):
    """`witness_search` one trial at a time: a space and six eigensolves each."""
    rng = np.random.default_rng(seed)
    for trial in range(budget):
        size = int(rng.integers(3, WITNESS_MAX_POINTS + 1))
        pts = rng.uniform(-1.0, 1.0, size=(size, n))
        space = generate(SpaceSpec("point_cloud_lp", {"points": pts.tolist(), "p": p}))
        for t in WITNESS_SCALES:
            diag = _spectrum(similarity(space, t))
            if diag.verdict == "Indefinite":
                return WitnessSearchResult(
                    True, trial + 1, len(WITNESS_SCALES), pts.tolist(), float(t),
                    diag.lambda_min, trial,
                )
    return WitnessSearchResult(False, budget, len(WITNESS_SCALES))


class TestWitnessBlocks:
    """Blocks of trials give bit-for-bit the one-at-a-time results."""

    # 0, 1 and 7 stay inside the first block; 255, 256 and 257 end one
    # trial short of, at, and one trial past its edge
    BUDGETS = (0, 1, 7, 255, 256, 257)

    def check_budgets(self, p, n, seed, budgets):
        # the loop stops at its first witness, so each smaller budget's
        # result follows from the largest budget's
        full = reference_witness_search(p, n, max(budgets), seed)
        for budget in budgets:
            if full.found and full.witness_seed_index < budget:
                expected = full
            else:
                expected = WitnessSearchResult(False, budget, len(WITNESS_SCALES))
            assert repr(witness_search(p, n, budget, seed)) == repr(expected)

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("n", [1, 4])
    def test_matches_per_trial_loop(self, p, n):
        self.check_budgets(p, n, 0, self.BUDGETS)

    # the first witness of each of these searches is at trial 39 or 235
    # (first block), 300 (second) or 742 (third)
    @pytest.mark.parametrize("n, seed", [(4, 3), (3, 1), (3, 0), (3, 3)])
    def test_witnesses_across_blocks(self, n, seed):
        self.check_budgets(math.inf, n, seed, self.BUDGETS + (1000,))

    def test_no_witness_past_several_blocks(self):
        self.check_budgets(2.0, 3, 5, (1000,))
