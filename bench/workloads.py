"""Seeded inputs and fixed maglab CLI operation lists for each workload.

`build(name, seed, workdir)` writes the workload's input files under
`workdir` and returns its operations.  Every input comes from the seed
alone, and every space recipe carries that seed as an explicit integer,
so the same seed reproduces identical files and operation lists.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracles


@dataclass(frozen=True)
class Outcome:
    exit_code: int
    stderr: str
    report: Optional[dict]  # the parsed --json output, when one was written


def _no_check(report: dict) -> list:
    return []


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple
    check: Callable[[dict], list] = _no_check
    expect_exit: int = 0
    expect_error: Optional[str] = None  # error class named on stderr

    @property
    def command(self) -> str:
        return self.argv[0]

    def judge(self, outcome: Outcome) -> tuple:
        """(problems, wrong): wrong means the program gave an incorrect answer.

        An operation that exits nonzero where success was expected failed but
        claimed no answer; one that exits 0 where an error is required, or
        whose output fails its oracle, is wrong.
        """
        if outcome.exit_code != self.expect_exit:
            problem = f"exit {outcome.exit_code}, expected {self.expect_exit}"
            return [problem], outcome.exit_code == 0
        problems = []
        if self.expect_error and f"error: {self.expect_error}:" not in outcome.stderr:
            problems.append(f"expected {self.expect_error}; stderr {outcome.stderr.strip()!r}")
        if outcome.report is not None:
            problems += self.check(outcome.report)
        elif self.check is not _no_check:
            problems.append("no --json report written")
        return problems, bool(problems)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    input_hash: str


def build(name: str, seed: int, workdir: Path, small: bool = False) -> Workload:
    """Write the inputs of workload `name` under `workdir`; return its ops."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops = _BUILDERS[name](int(seed), workdir, small)
    return Workload(name, tuple(ops), _input_hash(ops, workdir))


def _input_hash(ops, workdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    for op in ops:
        h.update(json.dumps([op.name, op.argv]).replace(str(workdir), "<inputs>").encode())
    return h.hexdigest()[:16]


def _write_spec(path: Path, family: str, params: dict, seed: int) -> str:
    spec = {"family": family, "params": params, "scale": 1.0, "snowflake": 1.0, "seed": seed}
    path.write_text(json.dumps(spec))
    return str(path)


def _write_matrix(path: Path, dist: np.ndarray) -> str:
    np.savetxt(path, dist, delimiter=",", fmt="%.17g")
    return str(path)


def _levels(levels) -> str:
    return ",".join(str(k) for k in levels)


def _spec_sweep(seed: int, workdir: Path, small: bool) -> list:
    rng = np.random.default_rng(seed)
    m, n_sphere = (11, 60) if small else (31, 800)
    # six log-spaced scales inside [0.5, 16], endpoints drawn from the seed
    lo = 0.5 * (1.0 + 0.1 * rng.random())
    hi = 16.0 * (1.0 - 0.1 * rng.random())
    scales = f"{lo!r}:{hi!r}:6log"
    grid = _write_spec(workdir / "l1-grid.json", "grid_net", {"m": m, "n": 2, "p": 1.0}, seed)
    sphere = _write_spec(
        workdir / "sphere.json", "sphere_fibonacci_net", {"n": n_sphere, "radius": 1.0}, seed
    )
    sphere_dist = functools.cache(partial(oracles.fibonacci_sphere_geodesic, n_sphere))
    interval = {n: np.linspace(0.0, 2.0, n) for n in ((11, 51) if small else (11, 51, 201, 801))}
    cantor = {k: oracles.cantor_points(k) for k in ((3, 5) if small else (3, 5, 7, 9))}
    return [
        Op("sweep:l1-grid", ("sweep", "--spec", grid, "--scales", scales),
           oracles.check_l1_square_sweep),
        Op("sweep:sphere", ("sweep", "--spec", sphere, "--scales", scales),
           lambda r: oracles.check_sphere_sweep(r, sphere_dist())),
        Op("negtype:sphere", ("negtype", "--spec", sphere),
           partial(oracles.check_field, key="classification", expected="StablyPositiveDefinite")),
        Op("approx:interval", ("approx", "--family", "interval", "--length", "2",
                               "--levels", _levels(interval)),
           partial(oracles.check_line_study, points_by_level=interval, limit=2.0)),
        Op("approx:cantor", ("approx", "--family", "cantor_net", "--levels", _levels(cantor)),
           partial(oracles.check_line_study, points_by_level=cantor)),
    ]


def _bipartite(m: int, n: int, r: float) -> np.ndarray:
    side = np.array([0] * m + [1] * n)
    d = np.where(side[:, None] != side[None, :], r, 2.0 * r)
    np.fill_diagonal(d, 0.0)
    return d


def _csv_solve(seed: int, workdir: Path, small: bool) -> list:
    rng = np.random.default_rng(seed)
    matrices = {}
    for n in (20, 40, 80) if small else (100, 200, 400):
        points = rng.uniform(0.0, 4.0, size=(n, 2))
        matrices[f"l2-cloud-{n}"] = oracles.lp_distances(points, 2.0)
    m = 6 if small else 21
    axis = np.linspace(0.0, 1.0, m)
    matrices[f"l1-grid-{m * m}"] = oracles.lp_distances(
        np.array([(x, y) for x in axis for y in axis]), 1.0
    )
    ops = []
    for label, dist in matrices.items():
        path = _write_matrix(workdir / f"{label}.csv", dist)
        weights = functools.cache(partial(oracles.reference_weighting, dist))
        ops += [
            Op(f"validate:{label}", ("validate", path),
               partial(oracles.check_validate, dist=dist)),
            Op(f"magnitude:{label}", ("magnitude", "--matrix", path),
               lambda r, w=weights: oracles.check_magnitude(r, w())),
            Op(f"diversity:{label}", ("diversity", "--matrix", path),
               lambda r, w=weights: oracles.check_diversity(r, w())),
        ]
    # K_{3,2} below its threshold log sqrt 2: magnitude must refuse
    k32 = _write_matrix(workdir / "k32-r0.3.csv", _bipartite(3, 2, 0.3))
    ops.append(Op("magnitude:k32-r0.3", ("magnitude", "--matrix", k32),
                  expect_exit=1, expect_error="NotPositiveDefinite"))
    # a Euclidean matrix with one side lengthened past a triangle by exactly 1
    broken = oracles.lp_distances(rng.uniform(0.0, 4.0, size=(20 if small else 50, 2)), 2.0)
    broken[0, 1] = broken[1, 0] = (broken[0, 2:] + broken[2:, 1]).min() + 1.0
    worst = oracles.worst_triangle_violation(broken)
    ops.append(Op("validate:broken-triangle",
                  ("validate", _write_matrix(workdir / "broken-triangle.csv", broken)),
                  partial(oracles.check_validate, dist=broken, worst=worst), expect_exit=1))
    return ops


def _fourier_witness(seed: int, workdir: Path, small: bool) -> list:
    rng = np.random.default_rng(seed)
    seed_p2 = int(rng.integers(0, 2**31))
    n_scales = int(rng.integers(3990, 4011)) if not small else 400
    budget = 200 if small else 2000
    # about 1 in 500 random subsets of l_inf^3 is a witness; the search stops
    # at the first, and this budget leaves a miss at odds of about e^-40.
    # Its seed is fixed, so that every run of the workload does the same
    # search: with a seeded one, the time to the first witness varied 30-fold.
    budget_inf = 20_000
    seed_inf = 0
    k32 = _write_spec(
        workdir / "k32.json", "complete_bipartite", {"m": 3, "n": 2, "r": 1.0}, seed
    )
    ops = [
        Op(f"fourier:p{p}", ("fourier", "--p", p), oracles.check_gamma_hat)
        for p in (("1",) if small else ("1", "1.5", "2"))
    ]
    if not small:
        # p = 0.5 has a heavy tail: the default L=40 truncates it, L=700 does not
        ops.append(Op("fourier:p0.5-L700", ("fourier", "--p", "0.5", "--L", "700"),
                      oracles.check_gamma_hat))
        # the bound's cost is one transform at exponent min(1, p) = 1, the
        # same for every (ell, p >= 1), so one pair measures it
        ops.append(Op("fourier:upper-bound-l2-p2",
                      ("fourier", "--upper-bound", "--ell", "2", "--p", "2"),
                      partial(oracles.check_upper_bound, ell=2.0)))
    ops += [
        Op("experiment:product-counterexample", ("experiment", "product-counterexample"),
           partial(oracles.check_field, key="classification", expected="NotStablyPD")),
        Op("experiment:witness-p2",
           ("experiment", "witness-search", "--p", "2", "--n", "3",
            "--budget", str(budget), "--seed", str(seed_p2)),
           partial(oracles.check_witness, p=2.0, expect_found=False, budget=budget)),
        Op("experiment:witness-pinf",
           ("experiment", "witness-search", "--p", "inf", "--n", "3",
            "--budget", str(budget_inf), "--seed", str(seed_inf)),
           partial(oracles.check_witness, p=math.inf, expect_found=True, budget=budget_inf)),
        Op("sweep:k32", ("sweep", "--spec", k32, "--scales", f"0.2:0.5:{n_scales}"),
           oracles.check_k32_threshold),
    ]
    return ops


_BUILDERS = {
    "spec-sweep": _spec_sweep,
    "csv-solve": _csv_solve,
    "fourier-witness": _fourier_witness,
}
NAMES = tuple(_BUILDERS)
