import functools
import importlib
import json
import logging
import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maglab import (
    FiniteMetricSpace,
    SpaceSpec,
    generate,
    is_positively_weighted,
    lp_product,
    magnitude,
    magnitude_dimension_estimate,
    max_diversity,
    random_cloud_spec,
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
from maglab.magnitude import (
    ScaleSweep, SweepRecord, _Kron, _similarity, _weighting,
)
from maglab import metric_core
from maglab.metric_core import _json_default
from maglab.negative_type import ScanRecord
from maglab.errors import (
    DegenerateQuadraticForm,
    InsufficientRecords,
    InvalidParams,
    NonFiniteEntry,
    NonpositiveScale,
    NotPositiveDefinite,
)

from conftest import random_cloud

# the package attribute `maglab.magnitude` is the function, not the module
magnitude_module = importlib.import_module("maglab.magnitude")

LOG_SQRT_2 = math.log(2.0) / 2.0


def _factors(space) -> tuple:
    """The distance matrices that Z's Kronecker factors are built from: an
    l_1 sum's factors, else the space's own."""
    return getattr(space.structure, "factors", ()) or (space.dist,)


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


@pytest.mark.parametrize("p", [1.0, 2.0])  # the Kronecker path and the dense one
@pytest.mark.parametrize("call", [
    lambda s: similarity(s, math.inf),
    lambda s: scale_sweep(s, [1.0, math.inf]),
    lambda s: stability_scan(s, [math.inf]),
    lambda s: scale_space(s, math.inf),
], ids=["similarity", "scale_sweep", "stability_scan", "scale_space"])
def test_rejects_infinite_scale(call, p):
    # exp(-inf * 0) on the diagonal would give NaN, and the rest Z = I
    s = generate(SpaceSpec("grid_net", {"m": 3, "n": 2, "p": p}))
    with pytest.raises(NonpositiveScale, match="positive and finite"):
        call(s)
    with pytest.raises(NonpositiveScale, match="positive and finite"):
        SpaceSpec("grid_net", {"m": 3, "p": p}, scale=math.inf)


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

    @pytest.mark.parametrize("mu", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]], 1.0])
    def test_wrong_length_rejected(self, two_points, mu):
        with pytest.raises(InvalidParams, match="2 entries"):
            rayleigh(two_points, mu)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_mu_rejected(self, bad):
        s = generate(SpaceSpec("interval_net", {"n": 3}))
        with pytest.raises(NonFiniteEntry, match="mu"):
            rayleigh(s, [bad, 1.0, 1.0])

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
        """Scales per stacked eigensolve, one entry per `_spectra` call."""
        calls = []
        original = magnitude_module._spectra

        def counted(zs):
            calls.append(zs[0].shape[0])
            return original(zs)

        monkeypatch.setattr(magnitude_module, "_spectra", counted)
        return calls

    @staticmethod
    def _record_similarities(monkeypatch, record):
        """Call record(dist, ts) for every similarity stack built, at each
        name binding the one builder."""
        original = magnitude_module._similarities

        def counted(dist, ts, **kwargs):
            record(dist, ts)
            return original(dist, ts, **kwargs)

        for name in ("maglab", "maglab.magnitude", "maglab.diversity",
                     "maglab.negative_type", "maglab.analysis", "maglab.cli"):
            module = importlib.import_module(name)
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    monkeypatch.setattr(module, attr, counted)

    @pytest.fixture
    def similarities(self, monkeypatch):
        """Scales of every similarity matrix built."""
        calls = []
        self._record_similarities(monkeypatch, lambda dist, ts: calls.extend(ts))
        return calls

    @pytest.fixture
    def similarity_sides(self, monkeypatch):
        """Side of every similarity matrix built, one entry per scale."""
        sides = []
        self._record_similarities(
            monkeypatch, lambda dist, ts: sides.extend([dist.shape[-1]] * len(ts))
        )
        return sides

    @pytest.mark.parametrize("with_diversity", [False, True])
    def test_sweep(self, eigensolves, similarities, with_diversity):
        s = generate(random_cloud_spec(36, 2, seed=1))
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
        s = generate(random_cloud_spec(36, 2, seed=1))
        ts = [0.25, 0.5, 1.0, 2.0, 4.0]
        report = stability_scan(s, ts)
        assert [r.t for r in report.records] == ts
        assert sum(eigensolves) == len(ts)
        assert similarities == ts

    @pytest.mark.parametrize("with_diversity", [False, True])
    def test_l1_grid_sweep_builds_factors(self, eigensolves, similarity_sides,
                                          with_diversity):
        """The l_1 grid's sweep builds and eigensolves only its 6 x 6 factor,
        once for both axes, every scale in one stack; the diversity solve
        alone builds the 36 x 36 Z, once per scale."""
        s = generate(SpaceSpec("grid_net", {"m": 6, "n": 2, "p": 1.0}))
        ts = [0.5, 1.0, 2.0, 4.0]
        sweep = scale_sweep(s, ts, with_diversity=with_diversity)
        assert eigensolves == [len(ts)]
        assert similarity_sides == [6] * len(ts) + ([36] * len(ts) if with_diversity else [])
        for r in sweep.records:
            dense = scale_space(s, r.t)
            diag = spectrum_diagnostics(dense)
            assert r.verdict == diag.verdict == "PositiveDefinite"
            assert abs(r.lambda_min - diag.lambda_min) <= 1e-12 * diag.lambda_max
            assert r.magnitude == pytest.approx(weighting(dense).magnitude, rel=1e-12)
            if with_diversity:
                assert r.diversity == max_diversity(dense).diversity

    def test_l1_grid_scan_builds_factors(self, eigensolves, similarity_sides):
        s = generate(SpaceSpec("grid_net", {"m": 6, "n": 2, "p": 1.0}))
        ts = [0.25, 0.5, 1.0, 2.0, 4.0]
        report = stability_scan(s, ts)
        assert eigensolves == [len(ts)]
        assert similarity_sides == [6] * len(ts)
        for r in report.records:
            diag = spectrum_diagnostics(scale_space(s, r.t))
            assert abs(r.lambda_min - diag.lambda_min) <= 1e-12 * diag.lambda_max
        assert report.classification == "StablyPositiveDefinite"

    def test_l1_cube_grid_solves_its_factor_once(self, monkeypatch, similarity_sides):
        """The n = 3 grid's three factors are one array: one stack, one
        eigvalsh and one bordered Cholesky stack per block of scales, holding
        each scale's factor once; `weighting` takes one `potrf`."""
        eigvalsh_shapes, cholesky_shapes, potrf_sides = [], [], []
        eigvalsh, cholesky = np.linalg.eigvalsh, np.linalg.cholesky
        potrf, potrs = magnitude_module._lapack()

        def counted_eigvalsh(a, *args, **kwargs):
            eigvalsh_shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        def counted_cholesky(a, *args, **kwargs):
            cholesky_shapes.append(a.shape)
            return cholesky(a, *args, **kwargs)

        def counted_potrf(a, *args, **kwargs):
            potrf_sides.append(len(a))
            return potrf(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        monkeypatch.setattr(magnitude_module, "_lapack", lambda: (counted_potrf, potrs))
        s = generate(SpaceSpec("grid_net", {"m": 5, "n": 3, "p": 1.0}))
        assert len(s.structure.factors) == 3
        # two scales per block: each block's entry count holds all three factors
        monkeypatch.setattr(magnitude_module, "_STACK_ENTRIES", 2 * 3 * 5 * 5)
        monkeypatch.setattr(metric_core, "_cpus", lambda: 1)  # blocks in order
        ts = [0.5, 1.0, 2.0, 4.0, 8.0]
        sweep = scale_sweep(s, ts)
        assert eigvalsh_shapes == [(2, 5, 5), (2, 5, 5), (1, 5, 5)]
        assert cholesky_shapes == [(2, 6, 6), (2, 6, 6), (1, 6, 6)]
        assert similarity_sides == [5] * len(ts)
        assert potrf_sides == []
        for r in sweep.records:
            t = r.t
            exact = (1.0 + 4.0 * math.tanh(t * 0.25 / 2.0)) ** 3
            assert r.verdict == "PositiveDefinite"
            assert r.magnitude == pytest.approx(exact, rel=1e-12)
        del eigvalsh_shapes[:], cholesky_shapes[:]
        # t = 1; the weighting's solve and the bordered factor differ in the last bits
        assert weighting(s).magnitude == pytest.approx(sweep.records[1].magnitude, rel=1e-12)
        assert eigvalsh_shapes == [(1, 5, 5)] and potrf_sides == [5] and cholesky_shapes == []

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

    def test_k32_sweep_factors_only_its_positive_definite_scales(self, monkeypatch):
        """Beside the one stacked eigvalsh, the sweep's per-scale work is one
        bordered Cholesky stack: each positive definite scale's Z, bordered by
        ones with an infinite corner, and no other scale's."""
        eigvalsh_shapes, factored = [], []
        eigvalsh, cholesky = np.linalg.eigvalsh, np.linalg.cholesky
        potrs = magnitude_module._lapack()[1]

        def counted_eigvalsh(a, *args, **kwargs):
            eigvalsh_shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        def counted_cholesky(a, *args, **kwargs):
            factored.append(np.array(a))
            return cholesky(a, *args, **kwargs)

        def no_potrf(a, *args, **kwargs):
            raise AssertionError("the sweep of a 5-point space calls potrf")

        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        monkeypatch.setattr(magnitude_module, "_lapack", lambda: (no_potrf, potrs))
        s = generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 1.0}))
        sweep = scale_sweep(s, np.linspace(0.2, 0.5, 4000))
        assert eigvalsh_shapes == [(4000, 5, 5)]
        pd = [r for r in sweep.records if r.verdict == "PositiveDefinite"]
        assert 0 < len(pd) < len(sweep.records)
        assert all(r.magnitude is None for r in sweep.records if r.verdict != "PositiveDefinite")
        [stack] = factored
        assert stack.shape == (len(pd), 6, 6)
        for b, r in zip(stack, pd):
            assert b[:5, :5].tobytes() == similarity(s, r.t).tobytes()
            assert (b[5, :5] == 1.0).all() and (b[:5, 5] == 1.0).all() and b[5, 5] == math.inf


@pytest.mark.parametrize("space, grid", [
    (generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 1.0})),
     np.linspace(0.2, 0.5, 4000)),
    (generate(SpaceSpec("grid_net", {"m": 7, "n": 3, "p": 1.0})),
     np.geomspace(0.05, 20.0, 30)),
])
def test_sweep_magnitude_is_the_weighting_reports(space, grid):
    """The sweep's magnitude, with no weighting vector, is `_weighting`'s to
    16 u kappa relative, u being the unit roundoff and kappa the condition
    number of Z: two backward stable solves differ in their last bits only
    (the worst case here is 3.5 u kappa, on the l_1 grid's products)."""
    sweep = scale_sweep(space, grid)
    pd = [r for r in sweep.records if r.verdict == "PositiveDefinite"]
    assert pd
    u = np.finfo(float).eps / 2
    for r in pd:
        z = _similarity(space, r.t)
        diag = z.spectrum()
        expected = _weighting(z, diag).magnitude
        assert abs(r.magnitude - expected) <= 16 * u * diag.condition_estimate * expected


def one_scale_magnitude(space, t, lambda_min):
    """The sweep's magnitude 1'Z^-1 1 at one positive definite scale, from
    the operator of a block of that scale alone."""
    block = _similarity(space, ts=[t])
    return block.magnitudes(np.array([0]), np.array([lambda_min]))[0]


def reference_sweep(space, grid, with_diversity=False):
    """`scale_sweep` as a per-scale loop: one operator and eigensolve, and
    one block of one scale for the magnitude, each."""
    from maglab.diversity import _max_diversity

    records = []
    for t in sorted(float(t) for t in grid):
        z = _similarity(space, t)
        diag = z.spectrum()
        mag = div = None
        if diag.verdict == "PositiveDefinite":
            mag = one_scale_magnitude(space, t, diag.lambda_min)
        if with_diversity and diag.verdict != "Indefinite":
            div = _max_diversity(similarity(space, t), diag).diversity
        records.append(SweepRecord(t, diag.lambda_min, diag.verdict, mag, div))
    spec = space.provenance
    return ScaleSweep(records, None if spec is None else spec.to_json())


def reference_scan(space, grid):
    """`stability_scan`'s records and failing scales as a per-scale loop."""
    records, failing = [], []
    for t in sorted(float(t) for t in grid):
        diag = _similarity(space, t).spectrum()
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
        # l_1 sums of two Kronecker factors; the second's K_{3,2} factor is
        # indefinite below t = log(sqrt 2) / 0.3
        (generate(SpaceSpec("grid_net", {"m": 5, "n": 2, "p": 1.0})),
         np.geomspace(0.05, 20.0, 7)),
        (lp_product(generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 0.3})),
                    generate(SpaceSpec("interval_net", {"n": 4})), 1.0),
         np.geomspace(0.5, 4.0, 8)),
    ]

    @pytest.fixture(params=["one", "two", "all_but_one", "all"])
    def blocks(self, request, monkeypatch):
        """Set the entry cap so that a block holds this many scales."""
        def cap(space, k):
            per_block = {"one": 1, "two": 2, "all_but_one": k - 1, "all": k}[request.param]
            sides = [len(d) for d in _factors(space)]
            monkeypatch.setattr(magnitude_module, "_STACK_ENTRIES",
                                per_block * sum(m * m for m in sides))
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

    def test_factored_cases_include_an_indefinite_factor(self):
        assert [space.structure is None for space, _ in self.CASES] == [True] * 4 + [False] * 2
        assert [len(_factors(space)) for space, _ in self.CASES] == [1, 1, 1, 1, 2, 2]
        space, grid = self.CASES[-1]
        verdicts = {r.verdict for r in scale_sweep(space, grid).records}
        assert verdicts == {"Indefinite", "PositiveDefinite"}

    def test_large_space_takes_one_scale_per_block(self):
        assert magnitude_module._STACK_ENTRIES // 725**2 == 1
        assert magnitude_module._STACK_ENTRIES // 724**2 == 2

    def test_diagnostics_are_python_floats(self):
        diag = spectrum_diagnostics(random_cloud(3))
        assert type(diag.tolerance_used) is float
        assert type(diag.lambda_min) is float and type(diag.lambda_max) is float

    @pytest.fixture(params=[1, 2, 3])
    def workers(self, request, monkeypatch):
        """Run the blocks of scales on this many workers, the caller included,
        each eigensolve on one BLAS thread."""
        monkeypatch.setattr(metric_core, "_cpus", lambda: request.param)
        monkeypatch.setattr(magnitude_module, "_blas_threads", lambda: 1)
        return request.param

    @staticmethod
    def _references(space, grid):
        diags = [_similarity(space, t).spectrum() for t in sorted(grid)]
        return (repr(diags), repr(reference_sweep(space, grid)),
                repr(reference_sweep(space, grid, True)), reference_scan(space, grid))

    @staticmethod
    def _assert_matches(space, grid, references):
        diags, sweep, with_diversity, (records, failing) = references
        ts = sorted(float(t) for t in grid)
        assert repr(magnitude_module._each_scale(
            space, ts, lambda ts, zs, lo, hi, v: magnitude_module._diagnostics(lo, hi))) == diags
        assert repr(scale_sweep(space, grid)) == sweep
        assert repr(scale_sweep(space, grid, True)) == with_diversity
        report = stability_scan(space, grid)
        assert repr(report.records) == repr(records)
        assert report.failing_scales == failing

    @pytest.mark.parametrize("space, grid", CASES)
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_counts_around_the_worker_count(self, workers, offset, space, grid,
                                                  monkeypatch):
        """Twelve scales in one block fewer, as many blocks as, and one block
        more than there are workers give the per-scale results."""
        grid = np.geomspace(min(grid), max(grid), 12)
        count = max(1, workers + offset)
        per_block = -(-12 // count)
        assert -(-12 // per_block) == count
        sides = [len(d) for d in _factors(space)]
        monkeypatch.setattr(magnitude_module, "_STACK_ENTRIES",
                            per_block * sum(m * m for m in sides))
        self._assert_matches(space, grid, self._references(space, grid))

    @pytest.mark.parametrize("n", [724, 725, 800])
    def test_large_spheres_on_any_worker_count(self, workers, n):
        """Two scales per block at n = 724, one from n = 725; the smallest
        scale is PositiveSemidefinite, so it has a diversity but no magnitude."""
        space, grid, references = self._large_case(n)
        assert "verdict='PositiveSemidefinite', magnitude=None, diversity=1." in references[2]
        self._assert_matches(space, grid, references)

    @pytest.mark.parametrize("n", [724, 725])
    def test_large_dense_blocks_on_any_worker_count(self, workers, n):
        """The same around n = 725 for a sphere with one symmetric pair of
        distances moved by 1 ulp, which is not symmetric under reversal and
        so takes dense `_Kron` blocks."""
        space, grid, references = self._large_case(n, nudged=True)
        assert isinstance(_similarity(space, ts=[]), _Kron)
        assert "verdict='PositiveSemidefinite', magnitude=None, diversity=1." in references[2]
        self._assert_matches(space, grid, references)

    @classmethod
    @functools.cache
    def _large_case(cls, n, nudged=False):
        grid = [1e-4, 1.0, 2.0][: 3 if n == 724 else 2]  # two blocks at every n
        space = generate(SpaceSpec("sphere_fibonacci_net", {"n": n}))
        if nudged:
            d = np.array(space.dist)
            d[0, 2] = d[2, 0] = np.nextafter(d[0, 2], np.inf)
            space = FiniteMetricSpace(space.labels, d)
        return space, grid, cls._references(space, grid)

    def test_bad_scale_raises_on_any_worker_count(self, workers, two_points, monkeypatch):
        """A bad scale in the first or the last block raises what a loop
        raises."""
        monkeypatch.setattr(magnitude_module, "_STACK_ENTRIES", 4)  # one scale per block
        with pytest.raises(NonpositiveScale, match="got inf"):
            scale_sweep(two_points, [1.0, 2.0, math.inf, 3.0], with_diversity=True)
        with pytest.raises(NonpositiveScale, match="got -1.0"):
            stability_scan(two_points, [-1.0, 1.0, 2.0])

    def test_factored_space_builds_its_dense_matrix_once(self, workers, monkeypatch,
                                                         caplog):
        """The diversity solves of a factored space's blocks, on any number
        of workers, read one dense matrix, built on the first read."""
        monkeypatch.setattr(magnitude_module, "_STACK_ENTRIES", 2 * 5 * 5)
        space = generate(SpaceSpec("grid_net", {"m": 5, "n": 2, "p": 1.0}))
        grid = np.geomspace(0.05, 20.0, 6)
        with caplog.at_level(logging.DEBUG, logger="maglab"):
            sweep = scale_sweep(space, grid, with_diversity=True)
        assert [r.message for r in caplog.records].count(
            "factored space of 25 points: building its dense 25 x 25 distance matrix") == 1
        assert repr(sweep) == repr(reference_sweep(space, grid, True))

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_dense_build_runs_on_the_calling_thread(self, cpus, monkeypatch, caplog):
        """A factored space's diversity sweep on several workers, one scale
        per block, builds its dense matrix on the calling thread."""
        monkeypatch.setattr(metric_core, "_cpus", lambda: cpus)
        monkeypatch.setattr(magnitude_module, "_blas_threads", lambda: 1)
        monkeypatch.setattr(magnitude_module, "_STACK_ENTRIES", 2 * 5 * 5)
        space = generate(SpaceSpec("grid_net", {"m": 5, "n": 2, "p": 1.0}))
        with caplog.at_level(logging.DEBUG, logger="maglab"):
            scale_sweep(space, np.geomspace(0.05, 20.0, 6), with_diversity=True)
        builds = [r for r in caplog.records if r.message.startswith("factored space")]
        assert [r.thread for r in builds] == [threading.get_ident()]

    def test_more_workers_than_cores(self, monkeypatch):
        """Eight workers taking 40 one-scale blocks, switching as often as the
        interpreter allows: a block lost, run twice or put out of order would
        change the records."""
        monkeypatch.setattr(metric_core, "_cpus", lambda: 8)
        monkeypatch.setattr(magnitude_module, "_blas_threads", lambda: 1)
        space, grid = self.CASES[2][0], np.geomspace(0.01, 4.0, 40)
        expected = repr(reference_sweep(space, grid, True))
        monkeypatch.setattr(magnitude_module, "_STACK_ENTRIES", len(space) ** 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert repr(scale_sweep(space, grid, True)) == expected
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("blas, threads", [
        ({}, 4), ({"OMP_NUM_THREADS": "2"}, 2), ({"OPENBLAS_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 3),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}, 2),
    ])
    def test_blas_threads_follow_openblas(self, blas, threads, monkeypatch):
        """OpenBLAS's own reading of its variables; without one it takes
        every CPU."""
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in blas.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(magnitude_module, "_cpus", lambda: 4)
        assert magnitude_module._blas_threads() == threads


class TestOneFactor:
    """A space without factors is the one-factor Kronecker product, and
    gives the bits of plain numpy."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matvec_is_matmul(self, seed):
        z = similarity(random_cloud(seed, n_max=40))
        w = np.random.default_rng(seed).normal(size=len(z))
        assert _Kron((z[None],)).matvec(w).tobytes() == (z @ w).tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_weighting_sums_and_residual(self, seed):
        z = similarity(random_cloud(seed, n_max=40))
        report = _weighting(_Kron((z[None],)), _Kron((z[None],)).spectrum())
        w = report.weighting
        assert report.magnitude == float(w.sum())
        assert report.residual == float(np.abs(z @ w - 1.0).max())


class TestWeightingFallback:
    def test_failed_factor_takes_least_squares_and_logs(self, monkeypatch, caplog):
        s = random_cloud(44)
        expected = weighting(s)
        potrs = magnitude_module._lapack()[1]
        monkeypatch.setattr(magnitude_module, "_lapack",
                            lambda: (lambda z, **kwargs: (np.zeros_like(z), 1), potrs))
        with caplog.at_level(logging.DEBUG, logger="maglab"):
            rep = weighting(s)
        assert rep.residual <= 1e-10
        assert rep.magnitude == pytest.approx(expected.magnitude, rel=1e-10)
        [record] = caplog.records
        assert record.name == "maglab" and record.levelno == logging.DEBUG
        assert "least squares" in record.getMessage()


def k32_near_threshold():
    """K_{3,2}'s 20 positive definite scales of the 4000-scale grid nearest
    log sqrt 2, where kappa(Z) reaches 1e6, and ten spread to t = 20."""
    grid = np.linspace(0.2, 0.5, 4000)
    near = sorted(grid[grid > LOG_SQRT_2])[:20]
    return [*near, *np.geomspace(0.4, 20.0, 10)]


class TestBorderedFactor:
    """The sweep's magnitudes from the bordered Cholesky stack, against
    1'Z^-1 1 solved at 50 digits on the same float Z (the product over an
    l_1 sum's factors)."""

    CASES = [
        (generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 1.0})),
         k32_near_threshold()),
        *[(random_cloud(seed, n_max=13, dim=2), np.geomspace(0.05, 30.0, 10))
          for seed in range(3)],
        (generate(SpaceSpec("sphere_fibonacci_net", {"n": 20})), np.geomspace(0.5, 30.0, 10)),
        (generate(SpaceSpec("grid_net", {"m": 7, "n": 2, "p": 1.0})),
         np.geomspace(0.05, 30.0, 10)),
    ]

    @staticmethod
    def exact_magnitude(z) -> mpmath.mpf:
        with mpmath.workdps(50):
            w = mpmath.lu_solve(mpmath.matrix(z.tolist()), mpmath.matrix([1] * len(z)))
            return mpmath.fsum(w)

    @pytest.mark.parametrize("space, grid", CASES)
    def test_matches_50_digit_solves(self, space, grid):
        """Each relative error is at most 4 m u kappa, m being the factored
        matrices' side, u the unit roundoff and kappa = lambda_max / lambda_min
        from the sweep's own eigensolve (the worst here is 0.4 m u kappa)."""
        ts = sorted(float(t) for t in grid)
        factors = _factors(space)
        assert max(len(d) for d in factors) <= magnitude_module._BORDERED_SIDE
        kappas = magnitude_module._each_scale(
            space, ts, lambda scales, zs, lo, hi, v: (hi / lo).tolist())
        records = scale_sweep(space, ts).records
        assert all(r.verdict == "PositiveDefinite" for r in records)
        u = np.finfo(float).eps / 2
        for r, kappa in zip(records, kappas):
            exact = math.prod(
                self.exact_magnitude(magnitude_module._similarities(d, [r.t])[0])
                for d in factors
            )
            error = abs(mpmath.mpf(r.magnitude) / exact - 1)
            assert error <= 4 * max(len(d) for d in factors) * u * kappa

    def test_failed_stack_factors_each_matrix_alone(self, monkeypatch, caplog):
        """A stack whose factor raises is factored one matrix at a time; the
        one matrix that fails alone, and whose `potrf` fails too, takes the
        logged least-squares fallback, and every other scale keeps its bits."""
        s = generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 1.0}))
        grid = np.geomspace(0.4, 20.0, 8)
        expected = scale_sweep(s, grid).records
        bad = similarity(s, float(grid[3]))
        cholesky, (potrf, potrs) = np.linalg.cholesky, magnitude_module._lapack()
        stacks = []

        def failing_cholesky(a, *args, **kwargs):
            stacks.append(len(a))
            if any(np.array_equal(b[:5, :5], bad) for b in a):
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(a, *args, **kwargs)

        def failing_potrf(z, **kwargs):
            return (np.zeros_like(z), 1) if np.array_equal(z, bad) else potrf(z, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", failing_cholesky)
        monkeypatch.setattr(magnitude_module, "_lapack", lambda: (failing_potrf, potrs))
        with caplog.at_level(logging.DEBUG, logger="maglab"):
            records = scale_sweep(s, grid).records
        assert stacks == [8] + [1] * 8
        [message] = [r.getMessage() for r in caplog.records]
        assert "least squares" in message
        for j, (r, e) in enumerate(zip(records, expected)):
            if j == 3:
                assert r.magnitude == pytest.approx(e.magnitude, rel=1e-12)
            else:
                assert repr(r) == repr(e)


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

    @pytest.mark.parametrize("grid", [[1.0, 1.0, 1.0], [1.0, 2.0, 2.0, 1.0]])
    def test_repeated_scales_are_insufficient(self, grid):
        s = generate(SpaceSpec("grid_net", {"m": 4, "n": 2, "p": 1.0}))
        sweep = scale_sweep(s, grid)
        with pytest.raises(InsufficientRecords, match="3 distinct scales"):
            magnitude_dimension_estimate(sweep, (0.5, 2.0))
        sweep = scale_sweep(s, [*grid, 0.5, 1.5])
        slope, stderr = magnitude_dimension_estimate(sweep, (0.5, 2.0))
        assert math.isfinite(slope) and math.isfinite(stderr)
