import math

import numpy as np
import pytest

from maglab import FiniteMetricSpace, SpaceSpec, generate


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
