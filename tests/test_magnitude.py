import importlib
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maglab import (
    FiniteMetricSpace,
    SpaceSpec,
    generate,
    is_positively_weighted,
    magnitude,
    magnitude_dimension_estimate,
    max_diversity,
    rayleigh,
    scale_space,
    scale_sweep,
    similarity,
    snowflake_space,
    spectrum_diagnostics,
    stability_scan,
    weighting,
)
from maglab.cli import _write_csv
from maglab.magnitude import ScaleSweep, SweepRecord, _spectrum, _weighting
from maglab.metric_core import _json_default
from maglab.negative_type import ScanRecord
from maglab.errors import (
    DegenerateQuadraticForm,
    InsufficientRecords,
    NonpositiveScale,
    NotPositiveDefinite,
)

from conftest import random_cloud

# the package attribute `maglab.magnitude` is the function, not the module
magnitude_module = importlib.import_module("maglab.magnitude")

LOG_SQRT_2 = math.log(2.0) / 2.0


def two_point_magnitude(d: float) -> float:
    # hand-solved 2x2 system [[1, q], [q, 1]] w = 1 with q = exp(-d)
    return 2.0 / (1.0 + math.exp(-d))


class TestSimilarity:
    def test_singleton(self):
        s = FiniteMetricSpace(("a",), [[0.0]])
        assert similarity(s).tolist() == [[1.0]]

    def test_two_points(self):
        s = FiniteMetricSpace((0, 1), [[0, 2.0], [2.0, 0]])
        q = math.exp(-2.0)
        assert np.allclose(similarity(s), [[1, q], [q, 1]])

    def test_scaling_is_entrywise_power(self):
        s = random_cloud(3, n_max=5)
        z1 = similarity(s)
        z3 = similarity(scale_space(s, 3.0))
        assert np.abs(z3 - z1**3.0).max() <= 1e-14

    def test_unit_diagonal_and_range(self):
        s = random_cloud(8)
        z = similarity(s)
        assert np.all(np.diag(z) == 1.0)
        off = z[~np.eye(len(s), dtype=bool)]
        assert np.all((off > 0) & (off < 1))

    @pytest.mark.parametrize("space", [
        random_cloud(5),
        generate(SpaceSpec("grid_net", {"n": 2, "p": 1.0, "m": 5})),
        generate(SpaceSpec("interval_net", {"length": 2.0, "n": 9},
                           scale=3.0, snowflake=0.5)),
    ])
    def test_scale_matches_scaled_copy_bit_for_bit(self, space):
        for t in (1e-3, 0.25, 1.0, math.log(2.0), 7.5, 1e3):
            z = similarity(space, t)
            assert np.array_equal(z, similarity(scale_space(space, t)))
            assert not z.flags.writeable

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_scale(self, t):
        with pytest.raises(NonpositiveScale):
            similarity(random_cloud(3), t)


class TestSpectrumDiagnostics:
    def test_singleton(self):
        diag = spectrum_diagnostics(FiniteMetricSpace(("a",), [[0.0]]))
        assert diag.lambda_min == diag.lambda_max == 1.0
        assert diag.verdict == "PositiveDefinite"

    def test_k32_below_threshold_indefinite(self):
        s = generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 0.3}))
        assert spectrum_diagnostics(s).verdict == "Indefinite"

    def test_k32_above_threshold_pd(self):
        s = generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 0.5}))
        assert spectrum_diagnostics(s).verdict == "PositiveDefinite"


class TestWeighting:
    def test_singleton(self):
        rep = weighting(FiniteMetricSpace(("a",), [[0.0]]))
        assert rep.magnitude == pytest.approx(1.0)
        assert rep.weighting == pytest.approx([1.0])

    @pytest.mark.parametrize("d", [0.3, 1.0, 5.0])
    def test_two_point_closed_form(self, d):
        s = FiniteMetricSpace((0, 1), [[0, d], [d, 0]])
        rep = weighting(s)
        assert rep.magnitude == pytest.approx(two_point_magnitude(d), abs=1e-12)

    def test_circle_weights_uniform(self):
        s = generate(SpaceSpec("circle_net", {"circumference": 2 * math.pi, "n": 100}))
        w = weighting(s).weighting
        assert np.abs(w - w.mean()).max() < 1e-10

    def test_refuses_indefinite(self):
        s = generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 0.2}))
        with pytest.raises(NotPositiveDefinite) as exc:
            weighting(s)
        assert exc.value.diagnostics.lambda_min < 0

    def test_magnitude_sums_weighting(self):
        s = random_cloud(44)
        rep = weighting(s)
        assert rep.magnitude == pytest.approx(rep.weighting.sum())
        assert rep.residual <= 1e-10

    def test_bit_stable_across_runs(self):
        s = random_cloud(45)
        w1 = weighting(s).weighting
        w2 = weighting(s).weighting
        assert w1.tobytes() == w2.tobytes()


class TestRayleigh:
    def test_at_weighting_equals_magnitude(self):
        s = random_cloud(5)
        rep = weighting(s)
        assert rayleigh(s, rep.weighting) == pytest.approx(rep.magnitude, abs=1e-10)

    def test_point_mass(self):
        s = random_cloud(6)
        mu = np.zeros(len(s))
        mu[0] = 1.0
        assert rayleigh(s, mu) == pytest.approx(1.0)

    def test_degenerate_rejected(self):
        s = FiniteMetricSpace(("a",), [[0.0]])
        with pytest.raises(DegenerateQuadraticForm):
            rayleigh(s, [0.0])

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_never_exceeds_magnitude(self, seed):
        rng = np.random.default_rng(seed)
        s = random_cloud(seed, n_max=8)
        mag = magnitude(s)
        mu = rng.normal(size=len(s))
        try:
            value = rayleigh(s, mu)
        except DegenerateQuadraticForm:
            return
        assert value <= mag + 1e-10

    def test_magnitude_at_least_one(self):
        for seed in range(30):
            s = random_cloud(seed + 300)
            assert magnitude(s) >= 1.0 - 1e-12


class TestSubsetMonotonicity:
    def test_deleting_a_point_never_increases_magnitude(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            s = random_cloud(seed, n_max=9)
            mag = magnitude(s)
            drop = int(rng.integers(0, len(s)))
            sub = s.subspace([i for i in range(len(s)) if i != drop])
            assert magnitude(sub) <= mag + 1e-10


class TestSchurClosure:
    def test_doubling_scale_stays_psd(self):
        for seed in range(60):
            s = random_cloud(seed, box=2.0)
            if spectrum_diagnostics(s).verdict != "PositiveDefinite":
                continue
            for t in (2.0, 3.0):
                diag = spectrum_diagnostics(scale_space(s, t))
                assert diag.lambda_min >= -diag.tolerance_used


class TestScaleSweep:
    def test_two_point_closed_form_grid(self, two_points):
        sweep = scale_sweep(two_points, [1.0, 2.0, 3.0])
        mags = [r.magnitude for r in sweep.records]
        assert mags == pytest.approx([two_point_magnitude(t) for t in (1, 2, 3)])
        assert mags == sorted(mags)

    def test_k32_records_verdicts(self):
        s = generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 1.0}))
        sweep = scale_sweep(s, [0.25, 1.0])
        by_t = {r.t: r for r in sweep.records}
        assert by_t[0.25].verdict == "Indefinite"
        assert by_t[0.25].magnitude is None
        assert by_t[1.0].verdict == "PositiveDefinite"

    @pytest.mark.parametrize("transform", [scale_space, snowflake_space])
    def test_transformed_space_reports_no_spec(self, transform):
        s = generate(SpaceSpec("interval_net", {"n": 4}))
        assert scale_sweep(s, [1.0]).spec == s.provenance.to_json()
        assert scale_sweep(transform(s, 0.5), [1.0]).spec is None

    def test_single_point_grid_consistent(self):
        s = random_cloud(77)
        sweep = scale_sweep(s, [1.0])
        assert sweep.records[0].magnitude == pytest.approx(magnitude(s))

    def test_rejects_empty_grid(self, two_points):
        with pytest.raises(InsufficientRecords):
            scale_sweep(two_points, [])

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_scale(self, two_points, t):
        with pytest.raises(NonpositiveScale):
            scale_sweep(two_points, [t, 1.0])

    def test_csv_and_json_round_trip(self, tmp_path, two_points):
        sweep = scale_sweep(two_points, [1.0, 2.0])
        payload = json.loads(json.dumps(sweep, default=_json_default))
        assert len(payload["records"]) == 2
        out = tmp_path / "sweep.csv"
        _write_csv(out, sweep.records)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("t,lambda_min")
        assert len(lines) == 3


class TestOneEigensolvePerScale:
    @pytest.fixture
    def eigensolves(self, monkeypatch):
        """Matrices per stacked eigensolve, one entry per `_spectra` call."""
        calls = []
        original = magnitude_module._spectra

        def counted(zs):
            calls.append(zs.shape[0])
            return original(zs)

        monkeypatch.setattr(magnitude_module, "_spectra", counted)
        return calls

    @pytest.fixture
    def similarities(self, monkeypatch):
        """Scales of every similarity matrix built, counted at each name
        binding the one builder."""
        calls = []
        original = magnitude_module._similarities

        def counted(dist, ts):
            calls.extend(ts)
            return original(dist, ts)

        for name in ("maglab", "maglab.magnitude", "maglab.diversity",
                     "maglab.negative_type", "maglab.analysis", "maglab.cli"):
            module = importlib.import_module(name)
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    monkeypatch.setattr(module, attr, counted)
        return calls

    @pytest.mark.parametrize("with_diversity", [False, True])
    def test_sweep(self, eigensolves, similarities, with_diversity):
        s = generate(SpaceSpec("grid_net", {"m": 6, "n": 2, "p": 1.0}))
        ts = [0.5, 1.0, 2.0, 4.0]
        sweep = scale_sweep(s, ts, with_diversity=with_diversity)
        assert [r.verdict for r in sweep.records] == ["PositiveDefinite"] * len(ts)
        assert sum(eigensolves) == len(ts)
        assert similarities == ts
        for r in sweep.records:
            scaled = scale_space(s, r.t)
            assert r.magnitude == weighting(scaled).magnitude
            if with_diversity:
                assert r.diversity == max_diversity(scaled).diversity

    def test_stability_scan(self, eigensolves, similarities):
        s = generate(SpaceSpec("grid_net", {"m": 6, "n": 2, "p": 1.0}))
        ts = [0.25, 0.5, 1.0, 2.0, 4.0]
        report = stability_scan(s, ts)
        assert [r.t for r in report.records] == ts
        assert sum(eigensolves) == len(ts)
        assert similarities == ts

    def test_is_positively_weighted(self, eigensolves, similarities):
        s = random_cloud(46)
        flag = is_positively_weighted(s)
        assert eigensolves == [1]
        assert similarities == [1.0]
        assert flag == weighting(s).positively_weighted

    def test_k32_threshold_sweep_is_one_eigvalsh(self, monkeypatch):
        calls = []
        original = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        s = generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 1.0}))
        sweep = scale_sweep(s, np.linspace(0.2, 0.5, 4000))
        assert calls == [(4000, 5, 5)]
        first = next(r.t for r in sweep.records if r.verdict != "Indefinite")
        assert first == pytest.approx(LOG_SQRT_2, abs=0.3 / 3999)


def reference_sweep(space, grid, with_diversity=False):
    """`scale_sweep` as a per-scale loop: one Z and one eigensolve each."""
    from maglab.diversity import _max_diversity

    records = []
    for t in sorted(float(t) for t in grid):
        z = similarity(space, t)
        diag = _spectrum(z)
        mag = div = None
        if diag.verdict == "PositiveDefinite":
            mag = _weighting(z, diag).magnitude
        if with_diversity and diag.verdict != "Indefinite":
            div = _max_diversity(z, diag).diversity
        records.append(SweepRecord(t, diag.lambda_min, diag.verdict, mag, div))
    spec = space.provenance
    return ScaleSweep(records, None if spec is None else spec.to_json())


def reference_scan(space, grid):
    """`stability_scan`'s records and failing scales as a per-scale loop."""
    records, failing = [], []
    for t in sorted(float(t) for t in grid):
        diag = _spectrum(similarity(space, t))
        records.append(ScanRecord(t, diag.lambda_min))
        if diag.verdict == "Indefinite":
            failing.append(t)
    return records, tuple(failing)


class TestStackedBlocks:
    """Blocks of scales give bit-for-bit the per-scale results."""

    CASES = [
        (generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 1.0})),
         np.linspace(0.2, 0.5, 9)),
        (generate(SpaceSpec("grid_net", {"m": 4, "n": 2, "p": 2.0})),
         np.geomspace(0.05, 20.0, 7)),
        (random_cloud(12, n_max=9, p=math.inf, box=3.0), np.geomspace(0.01, 4.0, 8)),
        (generate(SpaceSpec("sphere_fibonacci_net", {"n": 30})), [0.5, 1.0, 2.0, 3.0]),
    ]

    @pytest.fixture(params=["one", "two", "all_but_one", "all"])
    def blocks(self, request, monkeypatch):
        """Set the entry cap so that a block holds this many scales."""
        def cap(space, k):
            per_block = {"one": 1, "two": 2, "all_but_one": k - 1, "all": k}[request.param]
            monkeypatch.setattr(magnitude_module, "_STACK_ENTRIES",
                                per_block * len(space) ** 2)
        return cap

    @pytest.mark.parametrize("space, grid", CASES)
    @pytest.mark.parametrize("with_diversity", [False, True])
    def test_sweep_matches_per_scale_loop(self, blocks, space, grid, with_diversity):
        expected = reference_sweep(space, grid, with_diversity)
        blocks(space, len(grid))
        assert repr(scale_sweep(space, grid, with_diversity)) == repr(expected)

    @pytest.mark.parametrize("space, grid", CASES)
    def test_scan_matches_per_scale_loop(self, blocks, space, grid):
        records, failing = reference_scan(space, grid)
        blocks(space, len(grid))
        report = stability_scan(space, grid)
        assert repr(report.records) == repr(records)
        assert report.failing_scales == failing

    def test_large_space_takes_one_scale_per_block(self):
        assert magnitude_module._STACK_ENTRIES // 725**2 == 1
        assert magnitude_module._STACK_ENTRIES // 724**2 == 2

    def test_diagnostics_are_python_floats(self):
        diag = spectrum_diagnostics(random_cloud(3))
        assert type(diag.tolerance_used) is float
        assert type(diag.lambda_min) is float and type(diag.lambda_max) is float


class TestWeightingFallback:
    def test_failed_factor_takes_least_squares_and_logs(self, monkeypatch, caplog):
        s = random_cloud(44)
        expected = weighting(s)
        monkeypatch.setattr(magnitude_module, "_POTRF",
                            lambda z, **kwargs: (np.zeros_like(z), 1))
        with caplog.at_level(logging.DEBUG, logger="maglab"):
            rep = weighting(s)
        assert rep.residual <= 1e-10
        assert rep.magnitude == pytest.approx(expected.magnitude, rel=1e-10)
        [record] = caplog.records
        assert record.name == "maglab" and record.levelno == logging.DEBUG
        assert "least squares" in record.getMessage()


class TestDimensionEstimate:
    def test_two_point_space_flat(self, two_points):
        sweep = scale_sweep(two_points, np.geomspace(100, 1000, 5))
        slope, _ = magnitude_dimension_estimate(sweep, (100, 1000))
        assert abs(slope) < 0.01

    def test_interval_slope_matches_closed_form(self):
        # |t[0,1]| = 1 + t/2 for the solid interval, so the log-log slope
        # over [8, 32] is the closed-form OLS value near 0.884, approaching
        # 1 only as t grows
        s = generate(SpaceSpec("interval_net", {"length": 1.0, "n": 801}))
        grid = np.geomspace(8, 32, 5)
        sweep = scale_sweep(s, grid)
        slope, stderr = magnitude_dimension_estimate(sweep, (8, 32))
        x = np.log(grid)
        y = np.log(1 + grid / 2)
        expected = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(expected, abs=0.02)
        assert 0.85 <= slope <= 1.05

    def test_insufficient_records(self, two_points):
        sweep = scale_sweep(two_points, [1.0, 2.0])
        with pytest.raises(InsufficientRecords):
            magnitude_dimension_estimate(sweep, (1.0, 2.0))
