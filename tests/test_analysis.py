import math
import re
import warnings

import numpy as np
import pytest

from maglab import (
    SpaceSpec,
    approx_magnitude,
    fourier_upper_bound_1d,
    gamma_hat_1d,
    generate,
    growth_bound_study,
    growth_lower_bound,
    lp_ball_volume,
    product_counterexample_experiment,
    witness_search,
)
from maglab import analysis as analysis_module
from maglab.analysis import (
    _CHIRP_BLOCK, WITNESS_MAX_POINTS, WITNESS_SCALES, WitnessSearchResult, _cosine_transform,
    _first_indefinite, _linspace_part,
)
from maglab.errors import InsufficientRecords, InvalidParams, QuadratureDivergence
from maglab.magnitude import _Kron, psd_tolerance, similarity


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
            # N + M - 1 = 1025, one past a power of two
            (np.linspace(0.0, 5.0, 1000), np.linspace(0.0, 2.5, 26)),
            # N + M - 1 = 1009, a prime
            (np.linspace(-1.0, 6.0, 1000), np.linspace(0.1, 3.7, 10)),
            # N + M - 1 = 1001, one past the 11-smooth 1000
            (np.linspace(0.0, 9.0, 980), np.linspace(-0.4, 4.0, 22)),
            # shorter than the frequency grid
            (np.linspace(-2.0, 3.0, 5), np.linspace(0.0, 1.0, 11)),
            # commensurate grids, P = 1 / (dx dw) an integer, on which the
            # trapezoid sum is periodic in k: N = 4097 > P = 512
            (np.linspace(0.0, 4.0, 4097), np.linspace(0.0, 98.0, 50)),
            # M - 1 = 199 > P / 2 = 128, with x[0] < 0
            (np.linspace(-1.5, 2.5, 257), np.linspace(0.0, 49.75, 200)),
            # nonzero x[0] and w[0], P = 1024
            (np.linspace(-1.0, 3.0, 1025), np.linspace(-0.75, 9.0, 40)),
            # P = 2
            (np.linspace(-0.5, 1.0, 4), np.linspace(0.0, 5.0, 6)),
            # S = 1050, P = 3 S = 3150 and P = 3151
            (np.linspace(-2.0, 997.0, 1000), np.linspace(0.0, 32.0 / 3150, 33)),
            (np.linspace(-2.0, 997.0, 1000), np.linspace(0.0, 32.0 / 3151, 33)),
            # dx dw underflows to 0, and to a subnormal: no warning
            (np.linspace(0.0, 1e-169, 11), np.linspace(0.0, 1e-169, 11)),
            (np.linspace(0.0, 1e-160, 11), np.linspace(0.0, 1e-161, 11)),
            # three blocks of 6,667 samples, x[0] < 0 and w[0] < 0
            (np.linspace(-3.0, 37.0, 20001), np.linspace(-0.7, 4.1, 97)),
        ],
    )
    def test_matches_trapezoid_reference(self, x, omegas):
        f = np.exp(-np.abs(x) ** 1.5)
        got = _cosine_transform(f, x, omegas)
        assert np.abs(got - _trapezoid_cosine(f, x, omegas)).max() <= 1e-12

    @pytest.fixture
    def ffts(self, monkeypatch):
        """(name, length) of each numpy FFT call."""
        calls = []

        def recorded(name):
            original = getattr(np.fft, name)

            def call(a, *args, **kwargs):
                calls.append((name, len(a)))
                return original(a, *args, **kwargs)
            return call

        for name in ("fft", "ifft", "rfft"):
            monkeypatch.setattr(np.fft, name, recorded(name))
        return calls

    @pytest.mark.parametrize("transform, blocks, size", [
        # N + 1 = 65,537 samples in nine blocks of 7,282 or 7,281; 7,682 pads to 7,700
        (lambda: gamma_hat_1d(1.0), 9, 7700),
        (lambda: gamma_hat_1d(0.5, L=700.0), 9, 7700),
        # 2^20 + 1 samples in 129 blocks of 8,129 or 8,128
        (lambda: gamma_hat_1d(1.0, N=2**20), 129, 8575),
        # the upper bound's 4,095-point bump at 2,001 frequencies
        (lambda: _cosine_transform(np.ones(4095), np.linspace(-0.9, 0.9, 4095),
                                   np.linspace(0.0, 20.0, 2001)), 1, 6125),
        (lambda: _cosine_transform(np.ones(1000), np.linspace(-2.0, 997.0, 1000),
                                   np.linspace(0.0, 32.0 / 3150, 33)), 1, 1050),
    ], ids=["default-grid", "p0.5-L700", "N2^20", "bump", "short"])
    def test_one_chirp_fft_then_two_per_block(self, ffts, transform, blocks, size):
        """The conjugate chirp's FFT, then a forward and an inverse FFT per
        block, all of the 11-smooth length past the longest block's
        convolution; no real FFT."""
        transform()
        assert ffts == [("fft", size)] + [("fft", size), ("ifft", size)] * blocks

    @pytest.mark.parametrize("L, N", [
        (40.0, 2**16), (700.0, 2**16), (700.0, 2**20), (3.3, 1001), (1e-3, 7), (0.1, 1),
    ])
    def test_block_samples_are_linspace_bits(self, L, N):
        """The blocks `_chirp_z` asks `gamma_hat_1d` for are made alone, and
        hold np.linspace(0, L, N + 1)'s bits."""
        n, blocks = N + 1, -(-(N + 1) // _CHIRP_BLOCK)
        bounds = [i * n // blocks for i in range(blocks + 1)]
        parts = [_linspace_part(L, N, j0, j1) for j0, j1 in zip(bounds, bounds[1:])]
        assert np.concatenate(parts).tobytes() == np.linspace(0.0, L, n).tobytes()

    @pytest.mark.parametrize("p, L", [(1.0, 40.0), (1.5, 40.0), (2.0, 40.0), (0.5, 700.0)])
    def test_generated_samples_transform_as_an_array(self, p, L):
        """gamma_hat_1d, whose samples are made block by block, gives the bits
        of the same transform of the whole sample array."""
        x, omegas = np.linspace(0.0, L, 2**16 + 1), np.linspace(0.0, 10.0, 401)
        expected = _cosine_transform(np.exp(-(x**p)), x, omegas)
        assert gamma_hat_1d(p, L=L).values.tobytes() == expected.tobytes()


class TestApproxMagnitude:
    def test_interval_families_agree(self):
        levels = [11, 101, 501]
        uni = approx_magnitude(SpaceSpec("interval_net", {"length": 2.0}), levels)
        che = approx_magnitude(SpaceSpec("interval_chebyshev_net", {"length": 2.0}), levels)
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

    @pytest.mark.parametrize("family", ["interval_net", "interval_chebyshev_net", "cantor_net"])
    def test_gap_ignores_a_parameter_the_family_does_not_read(self, family):
        """A line net's gaps are in its own metric |x - y|, whatever a stray
        `p` in its params says."""
        levels = [2, 3, 5] if family == "cantor_net" else [3, 5, 9]
        plain = approx_magnitude(SpaceSpec(family, {"length": 2.0}), levels)
        stray = approx_magnitude(SpaceSpec(family, {"length": 2.0, "p": 0.5}), levels)
        assert [r.gap for r in stray.records] == [r.gap for r in plain.records]
        assert plain.records[0].gap > 0

    def test_singleton_family_constant(self):
        # the one-point net reads 1 at every length
        for length in (0.5, 1.0, 4.0):
            study = approx_magnitude(SpaceSpec("interval_net", {"length": length}), [1])
            assert [r.magnitude for r in study.records] == [pytest.approx(1.0)]
            assert study.extrapolated_limit == pytest.approx(1.0)

    @pytest.mark.parametrize("length", [1e10, 1e16, 1e100, 1e300])
    def test_limit_at_large_lengths(self, length):
        """With gaps this large every tanh term is 1, so the nets of 2, 3 and
        5 points have magnitudes 2, 3 and 5 at gaps L/2, L/4 and 0, and the
        line through them by least squares meets gap 0 at 29/6."""
        study = approx_magnitude(SpaceSpec("interval_net", {"length": length}), [2, 3, 5])
        assert [r.magnitude for r in study.records] == [2.0, 3.0, 5.0]
        assert study.extrapolated_limit == pytest.approx(29 / 6, rel=1e-14)

    @pytest.mark.parametrize("levels", [[11, 11, 11], [5, 11, 21, 21], [21, 5, 21]])
    def test_repeated_levels_refused(self, levels):
        # a repeated level would count one net twice in the gap fit
        with pytest.raises(InvalidParams, match="distinct"):
            approx_magnitude(SpaceSpec("interval_net", {"length": 2.0}), levels)

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
        # l_inf^3 grids of 3 and 4 points a side are indefinite; the study keeps going
        study = approx_magnitude(SpaceSpec("grid_net", {"n": 3, "p": math.inf}), [3, 4])
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

    @pytest.mark.parametrize("params", [{"m": 3, "n": "x"}, {"m": 3, "p": "y"}])
    def test_bad_template_parameter_is_invalid_params(self, params):
        """The template is generated, and so validated, before the study
        reads its n and p."""
        with pytest.raises(InvalidParams):
            growth_bound_study(SpaceSpec("grid_net", params), [1.0, 2.0])

    def test_repeated_scales_are_insufficient(self):
        # three checks at one scale give no slope
        grid = SpaceSpec("grid_net", {"n": 2, "p": 1.0, "m": 5})
        with pytest.raises(InsufficientRecords, match="3 distinct scales"):
            growth_bound_study(grid, [2.0, 2.0, 2.0])


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

    def test_window_past_float_range_has_no_tail(self):
        """L^p overflows the float range: the tail is 0, with no OverflowError
        and no warning (warnings are errors here).  The frequency grid stays
        below so coarse a grid's Nyquist frequency N / (2L), about 3.3e-196."""
        assert gamma_hat_1d(2.0, L=1e200, omega_max=1e-196).tail_estimate == 0.0

    @pytest.mark.parametrize("p,L", [(1.0, 1e300), (2.0, 1e200), (1.0, 1e4), (1.0, 3277.0)])
    def test_grid_must_resolve_omega_max(self, p, L):
        """omega_max = 10 past N / (2L) at N = 2^16 would alias the transform."""
        with pytest.raises(InvalidParams, match="Nyquist"):
            gamma_hat_1d(p, L=L)

    def test_unresolved_grid_is_refused_before_the_transform(self, monkeypatch):
        """N / (2L) is taken as 0.5 * N / L, which does not overflow at
        L = 1e308, and a refused grid pays no transform."""
        def refuse(*args):
            raise AssertionError("an unresolved grid was transformed")

        monkeypatch.setattr(analysis_module, "_chirp_z", refuse)
        with pytest.raises(InvalidParams, match=r"N / \(2L\) = 3.28e-304;"):
            gamma_hat_1d(1.0, L=1e308)
        with pytest.raises(InvalidParams, match="Nyquist"):
            gamma_hat_1d(1.0, L=1e4)

    def test_nyquist_edge_is_accepted(self):
        assert gamma_hat_1d(1.0, L=40.0, N=800).positive  # N / (2L) = 10 exactly
        with pytest.raises(InvalidParams, match="Nyquist"):
            gamma_hat_1d(1.0, L=40.0, N=799)

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
            {"L": math.inf},
            {"omega_max": math.inf},
        ],
    )
    def test_invalid_grid(self, kwargs):
        with pytest.raises(InvalidParams):
            gamma_hat_1d(1.0, **kwargs)


@pytest.mark.parametrize("transform", [
    lambda **kwargs: gamma_hat_1d(1.0, **kwargs),
    lambda **kwargs: fourier_upper_bound_1d(2.0, 1.0, 1.0, 4.0, **kwargs),
], ids=["gamma_hat_1d", "fourier_upper_bound_1d"])
@pytest.mark.parametrize("kwargs", [
    {"N": 65536.5}, {"N": True}, {"N": np.float64(2**16)}, {"n_omega": 401.5},
    {"n_omega": True},
])
def test_grid_sizes_must_be_integers(transform, kwargs):
    """A fractional or boolean N or n_omega is refused, not rounded or
    taken as 1."""
    (value,) = kwargs.values()
    with pytest.raises(InvalidParams, match=re.escape(f"got {value!r}") + "$"):
        transform(**kwargs)


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

    def test_kernel_grid_must_resolve_omega_max(self):
        """The bound's omega_max = 20 is past N / (2L) = 3.3 at L = 1e4."""
        with pytest.raises(InvalidParams, match="Nyquist"):
            fourier_upper_bound_1d(2.0, 1.0, 1.0, 4.0, L=1e4)

    @pytest.mark.parametrize("radius", [1e-300, 1e-3])
    def test_bound_past_the_grid_is_refused(self, radius):
        """At ell = 0 a narrow mollifier's quotient still grows at omega_max
        = 20; the grid maximum there would read 1.6e-296 or 15.7."""
        with pytest.raises(QuadratureDivergence, match="does not show its supremum"):
            fourier_upper_bound_1d(0.0, 1.0, 1.0, radius)

    def test_requires_radius_beyond_interval(self):
        with pytest.raises(InvalidParams):
            fourier_upper_bound_1d(2.0, 1.0, 1.0, 2.0)

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_requires_finite_radius(self, radius):
        with pytest.raises(InvalidParams, match="mollifier_radius"):
            fourier_upper_bound_1d(2.0, 1.0, 1.0, radius)

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

    @pytest.mark.parametrize("budget", [2.5, True])
    def test_rejects_budget_that_is_not_an_integer(self, budget):
        with pytest.raises(InvalidParams, match="budget"):
            witness_search(p=math.inf, n=3, budget=budget, seed=0)

    @pytest.mark.parametrize("n", [0, -1, 1.5, True])
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

    def test_overflowing_p_searches_like_inf(self):
        # |x - y|**1e308 leaves the float range, yet the norm is the max norm
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = witness_search(p=1e308, n=3, budget=400, seed=0)
            assert found == witness_search(p=math.inf, n=3, budget=400, seed=0)
            space = generate(SpaceSpec("point_cloud_lp", {"points": [[0.0], [2.0]], "p": 1e308}))
        assert found.found
        assert space.dist[0, 1] == 2.0


def reference_witness_search(p, n, budget, seed=0):
    """`witness_search` one trial at a time: a space and six eigensolves each."""
    rng = np.random.default_rng(seed)
    for trial in range(budget):
        size = int(rng.integers(3, WITNESS_MAX_POINTS + 1))
        pts = rng.uniform(-1.0, 1.0, size=(size, n))
        space = generate(SpaceSpec("point_cloud_lp", {"points": pts.tolist(), "p": p}))
        for t in WITNESS_SCALES:
            diag = _Kron((similarity(space, t)[None],)).spectrum()
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


class TestWitnessScreen:
    """A stacked Cholesky factor of Z + sigma I spares the eigensolve of each
    size group that it shows holds no Indefinite matrix."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """("cholesky", shape, factored) and ("eigvalsh", shape), in order."""
        calls = []
        eigvalsh, cholesky = np.linalg.eigvalsh, np.linalg.cholesky

        def counted_eigvalsh(a, *args, **kwargs):
            calls.append(("eigvalsh", a.shape))
            return eigvalsh(a, *args, **kwargs)

        def counted_cholesky(a, *args, **kwargs):
            try:
                factor = cholesky(a, *args, **kwargs)
            except np.linalg.LinAlgError:
                calls.append(("cholesky", a.shape, False))
                raise
            calls.append(("cholesky", a.shape, True))
            return factor

        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        return calls

    def test_p2_search_makes_no_eigensolve(self, calls):
        """Every subset of l_2^3 is positive definite: each screen succeeds."""
        assert not witness_search(p=2.0, n=3, budget=300, seed=1).found
        # 256 + 44 trials of 3 to 8 points: one screen per size in each block
        assert len(calls) == 12
        assert all(call[0] == "cholesky" and call[2] for call in calls)

    def test_pinf_eigensolves_only_the_failed_screens(self, calls):
        assert witness_search(p=math.inf, n=3, budget=1000, seed=0).found
        screens = [call for call in calls if call[0] == "cholesky"]
        failed = [call for call in screens if not call[2]]
        assert 0 < len(failed) < len(screens)
        # each failed screen is followed by the eigensolve of its own stack
        for i, call in enumerate(calls):
            if call[0] == "eigvalsh":
                assert calls[i - 1] == ("cholesky", call[1], False)
        assert sum(call[0] == "eigvalsh" for call in calls) == len(failed)

    @staticmethod
    def _just_indefinite():
        """K_{3,2} just below its threshold log sqrt 2, where eigvalsh puts
        lambda_min about 1e-12 below the band -tau, found by bisection."""
        space = generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 1.0}))

        def excess(t):  # lambda_min + tau + 1e-12
            vals = np.linalg.eigvalsh(similarity(space, t))
            return vals[0] + psd_tolerance(vals[-1]) + 1e-12

        lo, hi = 0.3, math.log(2.0) / 2.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if excess(mid) < 0 else (lo, mid)
        return space, lo

    def test_just_indefinite_matrix_falls_back_and_is_reported(self, calls):
        space, t = self._just_indefinite()
        z = similarity(space, t)
        vals = np.linalg.eigvalsh(z)
        tau = psd_tolerance(vals[-1])
        assert -tau - 2e-12 < vals[0] < -tau - 0.5e-12
        # (scale, trial) stack: positive definite matrices around z at (1, 1)
        stack = np.stack([
            [similarity(space, 1.0), similarity(space, 2.0), similarity(space, 3.0)],
            [similarity(space, 1.5), z, similarity(space, 0.5)],
        ])
        del calls[:]
        assert _first_indefinite(stack) == (1, 1, float(vals[0]))
        assert calls == [("cholesky", stack.shape, False), ("eigvalsh", stack.shape)]

    def test_positive_definite_stack_is_not_eigensolved(self, calls):
        space = generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 1.0}))
        stack = np.stack([[similarity(space, t)] for t in (0.4, 1.0, 4.0)])
        assert _first_indefinite(stack) is None
        assert calls == [("cholesky", stack.shape, True)]
