import json
import math
import random
import warnings

import numpy as np
import pytest

from maglab import SpaceSpec, generate
from maglab.cli import _parse_scales, run


@pytest.fixture
def two_point_csv(tmp_path):
    path = tmp_path / "two_points_d1.csv"
    np.savetxt(path, [[0.0, 1.0], [1.0, 0.0]], delimiter=",")
    return str(path)


@pytest.fixture
def k32_small_csv(tmp_path):
    space = generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 0.3}))
    path = tmp_path / "k32_r0.3.csv"
    np.savetxt(path, space.dist, delimiter=",")
    return str(path)


@pytest.fixture
def k32_spec_json(tmp_path):
    spec = SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 1.0})
    path = tmp_path / "k32_r1.json"
    path.write_text(spec.to_json())
    return str(path)


class TestMagnitudeCommand:
    def test_two_point_value(self, two_point_csv, capsys):
        result = run(["magnitude", "--matrix", two_point_csv])
        assert result.exit_code == 0
        out = capsys.readouterr().out
        assert f"{2.0 / (1.0 + math.exp(-1.0)):.6f}"[:8] in out

    def test_indefinite_matrix_exits_one(self, k32_small_csv, capsys):
        result = run(["magnitude", "--matrix", k32_small_csv])
        assert result.exit_code == 1
        err = capsys.readouterr().err
        assert "NotPositiveDefinite" in err
        assert "lambda_min" in err

    def test_json_report_complete(self, two_point_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        result = run(["magnitude", "--matrix", two_point_csv, "--json", str(out)])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert set(payload) >= {
            "magnitude", "weighting", "residual", "positively_weighted", "diagnostics",
        }
        assert payload["magnitude"] == pytest.approx(2.0 / (1.0 + math.exp(-1.0)))


class TestNegtypeCommand:
    def test_k32_spec(self, k32_spec_json, capsys):
        result = run(["negtype", "--spec", k32_spec_json])
        assert result.exit_code == 0
        out = capsys.readouterr().out
        assert "negative_type: false" in out
        assert "NotStablyPD" in out


class TestDiversityCommand:
    def test_two_point(self, two_point_csv, capsys):
        result = run(["diversity", "--matrix", two_point_csv])
        assert result.exit_code == 0
        assert "support 2" in capsys.readouterr().out


class TestSweepCommand:
    def test_log_grid_and_csv(self, k32_spec_json, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        result = run([
            "sweep", "--spec", k32_spec_json,
            "--scales", "0.25:1:3log", "--csv", str(out),
        ])
        assert result.exit_code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 4
        assert "Indefinite" in rows[1]


class TestParseScales:
    @pytest.mark.parametrize("grid", ["0.3:4:1", "0.3:4:1log"])
    def test_one_point_is_the_start(self, grid):
        assert _parse_scales(grid) == [0.3]

    @pytest.mark.parametrize("grid,expected", [
        ("0.2:3:6", np.linspace(0.2, 3.0, 6)),
        ("0.25:4:9log", np.geomspace(0.25, 4.0, 9)),
    ])
    def test_grid_is_numpys(self, grid, expected):
        assert _parse_scales(grid) == list(expected)


class TestValidateCommand:
    def test_good_matrix(self, two_point_csv, capsys):
        assert run(["validate", two_point_csv]).exit_code == 0

    def test_bad_matrix(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        np.savetxt(path, [[0, 1, 3], [1, 0, 1], [3, 1, 0]], delimiter=",")
        assert run(["validate", str(path)]).exit_code == 1


class TestApproxCommand:
    def test_interval_study(self, tmp_path, capsys):
        out = tmp_path / "study.json"
        result = run([
            "approx", "--family", "interval", "--length", "2.0",
            "--levels", "11,51,201", "--json", str(out),
        ])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["extrapolated_limit"] == pytest.approx(2.0, abs=5e-3)

    def test_chebyshev_nets(self, capsys):
        argv = ["approx", "--family", "chebyshev", "--length", "2", "--levels", "5,9,17"]
        assert run(argv).exit_code == 0
        assert "extrapolated limit" in capsys.readouterr().out

    def test_no_positive_definite_level(self, capsys):
        # l_inf^3 grids of 3 and 4 points a side are indefinite at scale 1
        argv = ["approx", "--family", "grid_net", "--params", '{"n": 3, "p": Infinity}',
                "--levels", "3,4"]
        assert run(argv).exit_code == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "no positive definite levels"
        assert all("FAILED" in line for line in out[:-1])


class TestFourierCommand:
    def test_gamma_hat(self, capsys):
        result = run(["fourier", "--p", "1.0"])
        assert result.exit_code == 0
        assert "positive True" in capsys.readouterr().out

    def test_upper_bound(self, capsys):
        result = run(["fourier", "--p", "2.0", "--upper-bound", "--ell", "2.0"])
        assert result.exit_code == 0
        assert "upper bound" in capsys.readouterr().out

    def test_upper_bound_honours_window(self, tmp_path, capsys):
        out = tmp_path / "bound.json"
        result = run([
            "fourier", "--upper-bound", "--p", "0.5", "--L", "700", "--ell", "2",
            "--json", str(out),
        ])
        assert result.exit_code == 0
        bound = json.loads(out.read_text())["bound"]
        assert math.isfinite(bound) and bound >= 2.0

    @pytest.mark.parametrize("grid", [["--N", "0"], ["--N", "-3"], ["--L", "-5"]])
    def test_bad_grid_is_domain_error(self, grid, capsys):
        assert run(["fourier", "--p", "1", *grid]).exit_code == 1
        assert "InvalidParams" in capsys.readouterr().err


class TestExperimentCommand:
    def test_product_counterexample(self, capsys):
        result = run(["experiment", "product-counterexample"])
        assert result.exit_code == 0
        assert "NotStablyPD" in capsys.readouterr().out

    def test_witness_search_zero_budget(self, capsys):
        result = run([
            "experiment", "witness-search", "--p", "inf", "--n", "3",
            "--budget", "0",
        ])
        assert result.exit_code == 0
        assert "no witness" in capsys.readouterr().out

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_witness_search_bad_dimension(self, n, capsys):
        argv = ["experiment", "witness-search", "--p", "inf", "--n", n]
        assert run(argv).exit_code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParams:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("args", [
        ["--p", "2", "--seed", "-1"],
        ["--p", "-1", "--budget", "0"],
        ["--p", "-1", "--budget", "3"],
        ["--p", "nan", "--budget", "0"],
    ])
    def test_witness_search_bad_seed_or_p(self, args, capsys):
        assert run(["experiment", "witness-search", *args]).exit_code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParams:")
        assert len(err.strip().splitlines()) == 1


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]).exit_code == 2

    def test_missing_source(self, capsys):
        assert run(["magnitude"]).exit_code == 2

    def test_bad_scales(self, k32_spec_json, capsys):
        assert run(["sweep", "--spec", k32_spec_json, "--scales", "nope"]).exit_code == 2

    @pytest.mark.parametrize("grid", ["0:1:3", "-1:1:3", "1:0:3log", "1:2:0"])
    def test_nonpositive_scales(self, grid, k32_spec_json, capsys):
        # "--scales=" keeps argparse from reading "-1:1:3" as an option
        assert run(["sweep", "--spec", k32_spec_json, f"--scales={grid}"]).exit_code == 2
        assert "scale grid endpoints must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["nan:1:3", "1:inf:3"])
    def test_nonfinite_scales(self, grid, k32_spec_json, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["sweep", "--spec", k32_spec_json, "--scales", grid]).exit_code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error" in line] == [
            "maglab sweep: error: argument --scales: scale grid endpoints must be finite"
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["magnitude", "--spec", "missing.json"],
            ["validate", "missing.csv"],
            ["diversity", "--matrix", "missing.csv"],
        ],
    )
    def test_missing_file(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(argv).exit_code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing." in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("text", ["0,1\n1,x\n", "0,1\n1\n", ""])
    @pytest.mark.parametrize("command", [["validate"], ["magnitude", "--matrix"]])
    def test_malformed_csv(self, text, command, tmp_path, capsys):
        path = tmp_path / "dist.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*command, str(path)]).exit_code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "malformed CSV" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("params", ["{bad", "[1, 2]"])
    def test_malformed_params(self, params, capsys):
        argv = ["approx", "--family", "cantor_net", "--levels", "2,3", "--params", params]
        assert run(argv).exit_code == 2
        assert "--params" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,needle",
        [
            ('{"params": {"m": 3, "n": 2, "r": 1.0}}', "'family'"),
            ('{"family": "complete_bipartite", ', "malformed spec"),
            ("[1, 2]", "malformed spec"),
            ('{"family": "interval_net", "params": []}', "malformed spec"),
        ],
    )
    def test_malformed_spec(self, text, needle, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert run(["negtype", "--spec", str(path)]).exit_code == 2
        err = capsys.readouterr().err
        assert needle in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "spec",
        [
            {"family": "point_cloud_lp", "params": {"points": "abc"}},
            {"family": "interval_net", "params": {"n": "abc"}},
            {"family": "interval_net", "params": {}},
            {"family": "grid_net", "params": {"m": 3, "p": "x"}},
            {"family": "ultrametric_tree", "params": {"n": 4}, "seed": -1},
            {"family": "interval_net", "params": {"n": 3}, "seed": "x"},
            {"family": "interval_net", "params": {"n": 3}, "seed": 1.5},
            {"family": "interval_net", "params": {"n": 3}, "seed": True},
            {"family": "interval_net", "params": {"n": 2.7}},
            {"family": "hyperbolic_disk_net", "params": {"n_theta": 6.0}},
            None,  # the same fault reached through approx --params
        ],
    )
    def test_unreadable_spec_value(self, spec, tmp_path, capsys):
        if spec is None:
            argv = ["approx", "--family", "grid_net", "--params", '{"p": "x"}',
                    "--levels", "3"]
        else:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            argv = ["magnitude", "--spec", str(path)]
        assert run(argv).exit_code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParams:")
        assert len(err.strip().splitlines()) == 1

    def test_unwritable_json_path(self, two_point_csv, tmp_path, capsys):
        report = tmp_path / "missing" / "r.json"
        argv = ["magnitude", "--matrix", two_point_csv, "--json", str(report)]
        assert run(argv).exit_code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


# spec values for the no-traceback tests: counts and reals a family can use,
# and values that no parameter can (non-finite, extreme, of the wrong type)
COUNTS = (1, 2, 3, 4, 6)  # at most 6^3 = 216 grid points
REALS = (0.5, 1.0, 3.0, 1000.0)
EXPONENTS = (0.5, 1.0, 2.0, math.inf)
WEIRD = (math.nan, math.inf, -math.inf, 1e308, 1e-300, 0, -1, "x", None, [1, 2])
FAMILY_PARAMS = {
    "interval_net": {"n": COUNTS, "length": REALS},
    "circle_net": {"n": COUNTS, "circumference": REALS},
    "cantor_net": {"level": COUNTS, "length": REALS},
    "grid_net": {"n": (1, 2, 3), "m": COUNTS, "p": EXPONENTS},
    "sphere_fibonacci_net": {"n": COUNTS, "radius": REALS},
    "hyperbolic_disk_net": {"r_max": REALS, "n_r": COUNTS, "n_theta": COUNTS},
    "complete_bipartite": {"m": COUNTS, "n": COUNTS, "r": REALS},
    "ultrametric_tree": {"n": COUNTS},
    "weighted_tree": {"n": COUNTS},
    "point_cloud_lp": {"points": None, "p": EXPONENTS},
}
NONFINITE_SPECS = [
    {"family": "hyperbolic_disk_net", "params": {"r_max": 1000.0, "n_r": 2, "n_theta": 3}},
    {"family": "interval_net", "params": {"n": 3, "length": math.inf}},
    {"family": "interval_net", "params": {"n": 5, "length": 1e308}, "scale": 2.0},
    {"family": "point_cloud_lp", "params": {"points": [[0.0], [math.nan], [1.0]]}},
]


def _draw(rng, valid):
    """A valid value most of the time, else one from WEIRD."""
    return rng.choice(valid) if rng.random() < 0.85 else rng.choice(WEIRD)


def _coordinate(rng):
    return rng.uniform(-2.0, 2.0) if rng.random() < 0.95 else rng.choice(WEIRD)


def _random_points(rng):
    if rng.random() < 0.1:
        return rng.choice(WEIRD)
    dim = rng.choice((1, 2, 3))
    return [[_coordinate(rng) for _ in range(dim)] for _ in range(rng.choice(COUNTS))]


def _random_spec(rng) -> dict:
    family = rng.choice(sorted(FAMILY_PARAMS))
    params = {}
    for key, valid in FAMILY_PARAMS[family].items():
        if rng.random() < 0.1:
            continue  # a missing parameter
        params[key] = _random_points(rng) if key == "points" else _draw(rng, valid)
    spec = {"family": family, "params": params}
    for key, valid in (("scale", (0.5, 1.0, 4.0)), ("snowflake", (1.0, 0.5, 0.25)),
                       ("seed", (0, 5, None))):
        if rng.random() < 0.7:
            spec[key] = _draw(rng, valid)
    return spec


def _spec_argvs(spec, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return [
        ["magnitude", "--spec", str(path)],
        ["diversity", "--spec", str(path)],
        ["negtype", "--spec", str(path)],
        ["sweep", "--spec", str(path), "--scales", "0.05:20:4log"],
    ]


class TestNoTraceback:
    @pytest.mark.parametrize("spec", NONFINITE_SPECS)
    def test_nonfinite_distances_refused(self, spec, tmp_path, capsys):
        for argv in _spec_argvs(spec, tmp_path):
            assert run(argv).exit_code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: NonFiniteEntry:")
            assert len(err.strip().splitlines()) == 1

    # the 2 tau I shift of a singular Z + 11' (distances scaled to 1e-300)
    # warns by design; any other warning escapes as a fault
    @pytest.mark.filterwarnings("ignore:Z \\+ 11' is singular:RuntimeWarning")
    def test_random_specs_exit_cleanly(self, tmp_path, capsys):
        rng = random.Random(0)
        escaped = []
        for _ in range(200):
            spec = _random_spec(rng)
            for argv in _spec_argvs(spec, tmp_path):
                try:
                    code = run(argv).exit_code
                except Exception as exc:  # the fault under test
                    escaped.append((spec, argv[0], repr(exc)))
                else:
                    assert code in (0, 1, 2), (spec, argv[0])
        capsys.readouterr()
        assert not escaped, escaped[:5]
