import math

import numpy as np
import pytest

from maglab import FiniteMetricSpace, SpaceSpec, generate


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """The shape of every array passed to `np.linalg.eigvalsh`."""
    shapes = []
    original = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return shapes


@pytest.fixture
def two_points():
    return FiniteMetricSpace((0, 1), [[0.0, 1.0], [1.0, 0.0]])


def random_metric_4pt(seed: int) -> FiniteMetricSpace:
    """A random 4-point metric; entries in [1, 2] satisfy every triangle."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(1.0, 2.0, size=(4, 4))
    d = np.triu(d, 1)
    return FiniteMetricSpace((0, 1, 2, 3), d + d.T)


def random_cloud(seed: int, n_max: int = 10, dim: int = 3, p: float = 2.0,
                 box: float = 1.0) -> FiniteMetricSpace:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max))
    pts = rng.uniform(0.0, box, size=(n, dim))
    return generate(SpaceSpec("point_cloud_lp", {"points": pts.tolist(), "p": p}))


def stacked_lp_norm(v: np.ndarray, p: float) -> np.ndarray:
    """||v||_p^min(1,p) over the last axis of v >= 0, p possibly inf, from the
    stacked powers: the reference for the one-factor-at-a-time kernel."""
    if math.isinf(p):
        return v.max(axis=-1)
    with np.errstate(over="ignore", under="ignore"):
        s = (v**p).sum(axis=-1)
        norm = s ** (1.0 / p) if p >= 1 else s
        # a power sum below tiny or at inf lost the norm: redo it from v / max(v)
        redo = np.flatnonzero(~((s >= np.finfo(float).tiny) & (s < np.inf)))
        if redo.size:
            w = v.reshape(-1, v.shape[-1])[redo]
            m = w.max(axis=-1, keepdims=True)
            r = (np.divide(w, m, out=np.zeros_like(w), where=m > 0) ** p).sum(axis=-1)
            norm.flat[redo] = m[:, 0] * r ** (1.0 / p) if p >= 1 else m[:, 0] ** p * r
    return norm


def stacked_lp_distances(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """`stacked_lp_norm` of the (..., k, m, dim) coordinate differences of
    x in a and y in b."""
    return stacked_lp_norm(np.abs(a[..., :, None, :] - b[..., None, :, :]), p)


# spaces of the schema tests and of the report corpus
SPACES = {
    "l1-grid": SpaceSpec("grid_net", {"m": 6, "n": 2, "p": 1.0}),
    # not positively weighted: its diversity takes the NNLS path
    "cloud": SpaceSpec("point_cloud_lp", {"points": np.random.default_rng(6).uniform(
        0, 1, size=(5, 2)).tolist(), "p": 1.0}),
    "k32-threshold": SpaceSpec(
        "complete_bipartite", {"m": 3, "n": 2, "r": math.log(math.sqrt(2.0))}
    ),
}


def report_corpus(tmp_path) -> list:
    """(argv, exit code) of every subcommand on ordinary inputs, and of
    `validate` on a matrix whose asymmetry overflows, with their input files
    written to tmp_path."""
    def csv(name, dist):
        path = tmp_path / f"{name}.csv"
        np.savetxt(path, dist, delimiter=",", fmt="%.17g")
        return str(path)

    def spec(name, space_spec):
        path = tmp_path / f"{name}.json"
        path.write_text(space_spec.to_json())
        return str(path)

    cloud = csv("cloud", generate(SPACES["cloud"]).dist)
    k32 = spec("k32", SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 1.0}))
    threshold = spec("k32-threshold", SPACES["k32-threshold"])
    return [
        (["validate", csv("pair", [[0, 1], [1, 0]])], 0),
        (["validate", csv("triangle", [[0, 1, 3], [1, 0, 1], [3, 1, 0]])], 1),
        (["validate", csv("overflow", [[0, 1e308], [-1e308, 0]])], 1),
        (["magnitude", "--matrix", cloud], 0),
        (["magnitude", "--spec", k32], 0),
        (["diversity", "--matrix", cloud], 0),
        (["diversity", "--matrix", csv("l1-grid", generate(SPACES["l1-grid"]).dist)], 0),
        (["diversity", "--spec", threshold], 0),
        (["sweep", "--spec", threshold, "--scales", "0.25:1:4log", "--with-diversity"], 0),
        (["negtype", "--spec", k32], 0),
        (["approx", "--family", "interval", "--levels", "3,5,9"], 0),
        (["fourier", "--p", "1.5"], 0),
        (["fourier", "--p", "2", "--upper-bound", "--ell", "2"], 0),
        (["experiment", "product-counterexample"], 0),
        (["experiment", "witness-search", "--p", "inf", "--budget", "400"], 0),
    ]
