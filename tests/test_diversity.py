import dataclasses
import itertools
import math

import numpy as np
import pytest

from maglab import (
    FiniteMetricSpace,
    SpaceSpec,
    diversity_diameter_check,
    generate,
    is_positively_weighted,
    magnitude,
    max_diversity,
    random_cloud_spec,
    similarity,
    spectrum_diagnostics,
    weighting,
)
from maglab import diversity
from maglab.cli import run
from maglab.errors import Inconsistent, IndefiniteForm, NotConverged

from conftest import random_cloud

# seeded 5-point l1^2 cloud whose weighting has a negative component
# (found by randomized search; regenerated deterministically from the seed)
NEGATIVE_WEIGHT_SEED = 6


def negative_weight_cloud() -> FiniteMetricSpace:
    rng = np.random.default_rng(NEGATIVE_WEIGHT_SEED)
    pts = rng.uniform(0, 1, size=(5, 2))
    return generate(SpaceSpec("point_cloud_lp", {"points": pts.tolist(), "p": 1.0}))


class TestMaxDiversity:
    def test_singleton(self):
        rep = max_diversity(FiniteMetricSpace(("a",), [[0.0]]))
        assert rep.diversity == pytest.approx(1.0)
        assert rep.measure == pytest.approx([1.0])

    @pytest.mark.parametrize("d", [0.5, 1.0, 4.0])
    def test_two_point_closed_form(self, d):
        s = FiniteMetricSpace((0, 1), [[0, d], [d, 0]])
        rep = max_diversity(s)
        assert rep.diversity == pytest.approx(2.0 / (1.0 + math.exp(-d)), abs=1e-10)
        assert rep.measure == pytest.approx([0.5, 0.5], abs=1e-8)

    def test_uniform_interval_matches_magnitude(self):
        s = generate(SpaceSpec("interval_net", {"length": 1.0, "n": 10}))
        rep = max_diversity(s)
        assert rep.converged
        assert abs(magnitude(s) - rep.diversity) <= 1e-6

    def test_measure_is_a_probability(self):
        for seed in range(20):
            rep = max_diversity(random_cloud(seed))
            assert rep.measure.min() >= 0.0
            assert rep.measure.sum() == pytest.approx(1.0, abs=1e-12)
            assert rep.diversity >= 1.0 - 1e-12

    def test_bound_pair_brackets_value(self):
        for seed in range(20):
            rep = max_diversity(random_cloud(seed + 50))
            assert rep.diversity <= rep.upper_bound

    def test_diversity_below_magnitude(self):
        for seed in range(50):
            s = random_cloud(seed + 100)
            assert max_diversity(s).diversity <= magnitude(s) + 1e-9

    def test_rejects_indefinite(self):
        s = generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 0.2}))
        with pytest.raises(IndefiniteForm):
            max_diversity(s)

    def test_deletion_never_increases_diversity(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            s = random_cloud(seed, n_max=8)
            div = max_diversity(s).diversity
            drop = int(rng.integers(0, len(s)))
            sub = s.subspace([i for i in range(len(s)) if i != drop])
            assert max_diversity(sub).diversity <= div + 1e-10

    def test_perturbation_continuity_probe(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(0, 1, size=(8, 2))
        base = generate(SpaceSpec("point_cloud_lp", {"points": pts.tolist(), "p": 2.0}))
        d0 = max_diversity(base).diversity
        for delta in (1e-3, 1e-4):
            shift = rng.uniform(-delta, delta, size=pts.shape) / math.sqrt(2)
            pert = generate(
                SpaceSpec("point_cloud_lp", {"points": (pts + shift).tolist(), "p": 2.0})
            )
            d1 = max_diversity(pert).diversity
            assert abs(d1 - d0) / delta <= 100.0


def subset_oracle(space: FiniteMetricSpace) -> float:
    """Leinster-Meckes: the largest sum(Z_BB^-1 1) over nonnegatively weighted B."""
    z = similarity(space)
    best = 0.0
    for k in range(1, len(space) + 1):
        for subset in itertools.combinations(range(len(space)), k):
            w = np.linalg.solve(z[np.ix_(subset, subset)], np.ones(k))
            if w.min() >= 0.0:
                best = max(best, float(w.sum()))
    return best


def bipartite(m: int, n: int, r: float) -> FiniteMetricSpace:
    return generate(SpaceSpec("complete_bipartite", {"m": m, "n": n, "r": r}))


def run_diversity(space: FiniteMetricSpace, tmp_path, *flags) -> int:
    """Exit code of `diversity --matrix` on the space's distance matrix."""
    path = tmp_path / "space.csv"
    np.savetxt(path, space.dist, delimiter=",", fmt="%.17g")
    return run(["diversity", "--matrix", str(path), *flags]).exit_code


def l1_grid(m: int) -> FiniteMetricSpace:
    return generate(SpaceSpec("grid_net", {"m": m, "n": 2, "p": 1.0}))


class TestExactSolver:
    def test_matches_subset_oracle(self):
        nnls_runs = 0
        for seed in range(100):
            s = random_cloud(seed, n_max=8)
            rep = max_diversity(s)
            assert rep.converged
            assert rep.diversity == pytest.approx(subset_oracle(s), rel=1e-12)
            nnls_runs += rep.iterations == 2
        # both paths are exercised (22 of these clouds are not positively weighted)
        assert 0 < nnls_runs < 100

    def test_psd_threshold_k32(self):
        s = bipartite(3, 2, math.log(math.sqrt(2.0)))
        assert spectrum_diagnostics(s).verdict == "PositiveSemidefinite"
        rep = max_diversity(s)
        assert rep.diversity == pytest.approx(1.5, rel=1e-12)
        assert rep.support == (0, 1, 2)
        assert rep.converged

    def test_positively_weighted_grid_is_one_solve(self, tmp_path, capsys):
        s = l1_grid(21)
        rep = max_diversity(s)
        assert rep.diversity == pytest.approx(magnitude(s), rel=1e-12)
        assert rep.converged
        assert rep.iterations == 1
        assert run_diversity(s, tmp_path) == 0

    def test_singular_along_mean_zero_direction(self):
        # K_{4,4} just below its threshold log 3: Z has one eigenvalue of
        # about -7e-10, inside the PSD band, along 1_A - 1_B, which 11' misses
        r = math.log(3.0) - 1e-9
        s = bipartite(4, 4, r)
        assert spectrum_diagnostics(s).verdict == "PositiveSemidefinite"
        with pytest.warns(RuntimeWarning, match="singular"):
            rep = max_diversity(s)
        # the uniform measure has constant Z mu, so it is the minimizer
        expected = 8.0 / (1.0 + 3.0 * math.exp(-2.0 * r) + 4.0 * math.exp(-r))
        assert rep.diversity == pytest.approx(expected, rel=1e-12)
        assert rep.converged

    # Z is exactly singular here, so whether Z + 11' factors without the
    # shift depends on roundoff; either way the answer is the same
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_k55_at_threshold(self):
        rep = max_diversity(bipartite(5, 5, math.log(4.0)))
        assert rep.diversity == pytest.approx(4.0, rel=1e-12)
        assert rep.converged

    def test_unfactorable_form_is_indefinite(self, monkeypatch, tmp_path, capsys):
        s = bipartite(4, 4, 0.2)
        diag = spectrum_diagnostics(s)
        assert diag.lambda_min < -0.2
        claimed = dataclasses.replace(diag, verdict="PositiveSemidefinite")
        monkeypatch.setattr(diversity, "spectrum_diagnostics", lambda space: claimed)
        with pytest.warns(RuntimeWarning), pytest.raises(IndefiniteForm) as info:
            max_diversity(s)
        assert info.value.diagnostics is claimed
        with pytest.warns(RuntimeWarning):
            assert run_diversity(s, tmp_path) == 1
        err = capsys.readouterr().err
        assert "IndefiniteForm" in err and "lambda_min" in err

    def test_nnls_iteration_limit(self, tmp_path, monkeypatch, capsys):
        s = random_cloud(0)
        assert max_diversity(s).iterations == 2
        monkeypatch.setattr(diversity, "NNLS_MAX_ITERS", 1)
        with pytest.raises(NotConverged):
            max_diversity(s)
        assert run_diversity(s, tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: NotConverged:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--tol", "--max-iters"])
    def test_solver_options_removed(self, flag, tmp_path, capsys):
        assert run_diversity(random_cloud(0), tmp_path, flag, "1") == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


class TestPositivelyWeighted:
    def test_ultrametric_trees(self):
        for seed in range(25):
            s = generate(SpaceSpec("ultrametric_tree", {"n": 8}, seed=seed))
            assert is_positively_weighted(s)

    def test_interval_nets(self):
        for n in (2, 5, 20):
            s = generate(SpaceSpec("interval_net", {"length": 1.0, "n": n}))
            assert is_positively_weighted(s)

    def test_l1_plane_counterexample(self):
        s = negative_weight_cloud()
        assert weighting(s).weighting.min() < -1e-6
        assert not is_positively_weighted(s)

    @pytest.mark.parametrize(
        "seed,p,n",
        [(14, 1, 8), (21, 2, 14), (115, 1, 26), (120, 1, 15), (201, 2, 14), (278, 1, 22)],
    )
    def test_small_negative_weight(self, seed, p, n):
        # weights down to -2e-4 leave magnitude and diversity within 1e-7
        # relative, since the deficit is second order in the negative weight
        s = generate(random_cloud_spec(n, 2, p=p, seed=seed, box=3.0))
        assert weighting(s).weighting.min() < -1e-4
        assert is_positively_weighted(s) is False

    @pytest.mark.parametrize("negative", [False, True])
    def test_disagreement_is_inconsistent(self, negative, monkeypatch):
        # a positive weighting whose diversity falls short, or a negative one
        # whose diversity solve never left the first step
        if negative:
            s, change = negative_weight_cloud(), {"iterations": 1}
        else:
            s = generate(SpaceSpec("interval_net", {"length": 1.0, "n": 5}))
            change = {"diversity": 0.5 * magnitude(s)}
        exact = diversity._max_diversity
        monkeypatch.setattr(
            diversity, "_max_diversity",
            lambda *args: dataclasses.replace(exact(*args), **change),
        )
        with pytest.raises(Inconsistent):
            is_positively_weighted(s)


class TestDiameterBound:
    def test_singleton(self):
        assert diversity_diameter_check(FiniteMetricSpace(("a",), [[0.0]]))

    def test_two_points(self):
        s = FiniteMetricSpace((0, 1), [[0, 2.0], [2.0, 0]])
        assert diversity_diameter_check(s)

    def test_random_clouds(self):
        for seed in range(50):
            assert diversity_diameter_check(random_cloud(seed + 700))
