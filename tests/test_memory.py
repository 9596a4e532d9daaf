"""Each stage holds at most one working n x n array beyond its inputs and
its output: its `tracemalloc` peak above the memory traced before it,
counted in n x n float matrices (in MiB for the cosine transform and the
--json writer, whose peaks do not grow with their number of samples or
records).

numpy reports its arrays to `tracemalloc`; LAPACK's internal copies are not
counted.  The bounds hold on one CPU, where `_each` runs inline and the
triangle check holds one tile, and on two, where it holds two.  Each stage
runs once untraced on a small input first, so that a first call's imports
and caches are not counted.
"""

import math
import tracemalloc

import numpy as np
import pytest

from maglab import (
    SpaceSpec, generate, max_diversity, negative_type_test, random_cloud_spec, validate_metric,
)
from maglab.analysis import gamma_hat_1d
from maglab.cli import _write_json
from maglab.magnitude import scale_sweep, weighting

MiB = 2.0**20


def traced_peak(fn, *args) -> float:
    """Bytes of fn(*args)'s traced peak above what was traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def matrices(fn, space) -> float:
    """fn(space)'s traced peak in matrices of the space's side."""
    return traced_peak(fn, space) / (8.0 * len(space) ** 2)


@pytest.fixture(scope="module")
def sphere():
    return generate(SpaceSpec("sphere_fibonacci_net", {"n": 800}))


def cloud(box: float):
    """A seeded 1,200-point cloud in [0, box]^2."""
    return generate(random_cloud_spec(1200, 2, seed=1200, box=box))


def test_cosine_transform_holds_two_buffers():
    # 401 frequencies and blocks of at most 8,192 samples: two complex
    # buffers of 7,700 entries at N = 2^16 and of 8,575 at N = 2^20, beside
    # the chirp and one block of samples; no array of N + 1 entries
    gamma_hat_1d(0.5, L=700.0, N=2**10, omega_max=0.5)
    for n in (2**16, 2**20):
        assert traced_peak(gamma_hat_1d, 0.5, 700.0, n) <= 0.625 * MiB


@pytest.mark.parametrize("report", [
    # 100,000 records (13.7 MB of JSON), and the 1,002,001 weights of the
    # l_1 grid, Kronecker products of two 1,001-point interval weightings (20.8 MB)
    lambda: scale_sweep(generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2})),
                        np.linspace(0.2, 0.5, 100_000).tolist()),
    lambda: weighting(generate(SpaceSpec("grid_net", {"m": 1001, "n": 2, "p": 1.0},
                                         scale=1000.0))),
], ids=["sweep-100000-scales", "grid-1002001-weights"])
def test_report_writer_holds_one_chunk(report, tmp_path):
    # json.dumps of the whole report held its text, and more: 32.2 and 54.3 MiB
    path = tmp_path / "report.json"
    _write_json(path, scale_sweep(generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2})),
                                  np.linspace(0.2, 0.5, 600).tolist()))
    assert traced_peak(_write_json, path, report()) <= 0.5 * MiB


def test_sphere_builds_in_the_array_it_returns():
    generate(SpaceSpec("sphere_fibonacci_net", {"n": 70}))
    spec = SpaceSpec("sphere_fibonacci_net", {"n": 800})
    assert traced_peak(generate, spec) / (8.0 * 800**2) <= 1.25


@pytest.mark.parametrize("family,small,params", [
    ("circle_net", {"n": 70}, {"n": 1201}),
    ("hyperbolic_disk_net", {"n_r": 3, "n_theta": 23}, {"n_r": 20, "n_theta": 60}),
])
def test_circle_and_disk_build_in_the_array_they_return(family, small, params):
    # 1,201 points each
    generate(SpaceSpec(family, small))
    spec = SpaceSpec(family, params)
    assert traced_peak(generate, spec) / (8.0 * 1201**2) <= 1.25


def test_gram_test_holds_one_matrix(sphere):
    negative_type_test(generate(SpaceSpec("sphere_fibonacci_net", {"n": 70})))
    assert negative_type_test(sphere).negative_type
    assert matrices(negative_type_test, sphere) <= 1.25


def test_validation_holds_one_matrix():
    space = cloud(4.0)
    validate_metric(space.dist[:70, :70])
    assert matrices(lambda s: validate_metric(s.dist), space) <= 1.35


@pytest.mark.parametrize("space,iterations", [
    # a cloud spread wide enough to be positively weighted, one that takes
    # the nonnegative solve, and a sphere whose Z the reversal split never forms
    (lambda: cloud(100.0), 1),
    (lambda: cloud(4.0), 2),
    (lambda: generate(SpaceSpec("sphere_fibonacci_net", {"n": 800}, scale=3.0)), 1),
], ids=["positively-weighted", "nonnegative-solve", "reversal-split"])
def test_diversity_holds_z_and_one_more(space, iterations):
    max_diversity(generate(random_cloud_spec(70, 2, seed=1, box=4.0)))
    space = space()
    assert max_diversity(space).iterations == iterations
    assert matrices(max_diversity, space) <= 2.05


@pytest.mark.parametrize("dim,p", [(2, 1.5), (3, 2.0), (3, math.inf)])
def test_cloud_sums_its_coordinates_in_place(dim, p):
    generate(random_cloud_spec(70, dim, p=p, seed=1))
    spec = random_cloud_spec(1200, dim, p=p, seed=1)
    assert traced_peak(generate, spec) / (8.0 * 1200**2) <= 2.3


def test_dense_grid_sums_its_factors_in_place():
    generate(SpaceSpec("grid_net", {"m": 3, "n": 3, "p": 2.0}))
    spec = SpaceSpec("grid_net", {"m": 12, "n": 3, "p": 2.0})
    assert traced_peak(generate, spec) / (8.0 * 1728**2) <= 2.3


def test_traced_peak_sees_numpy_arrays():
    # the measure the bounds rest on: a 1 MiB array is traced
    assert traced_peak(lambda: np.ones(2**17).sum()) >= MiB
