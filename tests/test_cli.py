import json
import math
import random
import warnings

import numpy as np
import pytest

from maglab import SpaceSpec, generate
from maglab.cli import _parse_scales, build_parser, run
from maglab.magnitude import _Fold, _similarity


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

    def test_overflowing_scaled_distance_warns_nothing(self, tmp_path, capsys):
        """At scale 16 of the scan, -t d overflows to -inf, whose exp is the
        exact similarity 0: no warning, and the two points are stably PD."""
        path = tmp_path / "far.csv"
        path.write_text("0,1e308\n1e308,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["negtype", "--matrix", str(path)]).exit_code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "classification: StablyPositiveDefinite" in captured.out


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

    @pytest.mark.parametrize("command", [["validate"], ["magnitude", "--matrix"]])
    def test_entries_near_float_max(self, command, tmp_path, capsys):
        """A metric whose sums of two distances overflow passes the check
        with nothing on stderr."""
        d = np.full((60, 60), 1.5e308)
        np.fill_diagonal(d, 0.0)
        path = tmp_path / "big.csv"
        np.savetxt(path, d, delimiter=",")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*command, str(path)]).exit_code == 0
        assert capsys.readouterr().err == ""


    def test_overflowing_asymmetry_exits_one(self, tmp_path, capsys):
        path = tmp_path / "asymmetric.csv"
        path.write_text("0,1e308\n-1e308,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["validate", str(path)]).exit_code == 1
        assert capsys.readouterr().err == ""


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

    @pytest.mark.parametrize("left,right", [
        # the CLI name and the family name build the same nets
        (["--family", "chebyshev"], ["--family", "interval_chebyshev_net"]),
        # --params sets the length as it does for every other family
        (["--family", "chebyshev", "--params", '{"length": 3}'],
         ["--family", "chebyshev", "--length", "3"]),
    ])
    def test_chebyshev_json_matches(self, left, right, tmp_path, capsys):
        outputs = []
        for extra in (left, right):
            out = tmp_path / "study.json"
            argv = ["approx", "--length", "2", "--levels", "5,9,17", *extra,
                    "--json", str(out)]
            assert run(argv).exit_code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("length", ["0", "-2"])
    def test_chebyshev_needs_positive_length(self, length, capsys):
        argv = ["approx", "--family", "chebyshev", f"--length={length}", "--levels", "5,9"]
        assert run(argv).exit_code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParams:")
        assert len(err.strip().splitlines()) == 1

    def test_repeated_levels_refused(self, capsys):
        argv = ["approx", "--family", "interval", "--length", "2", "--levels", "11,11,11"]
        assert run(argv).exit_code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: InvalidParams:") and "distinct" in err

    def test_one_point_quadrature_level_is_recorded(self, tmp_path, capsys):
        # the one-point net's cell measure is [0], where the quotient has no value
        out = tmp_path / "study.json"
        argv = ["approx", "--family", "interval", "--levels", "1,2", "--quadrature",
                "--json", str(out)]
        assert run(argv).exit_code == 0
        one, two = json.loads(out.read_text())["records"]
        assert one["magnitude"] is None and "vanishes" in one["failure"]
        assert two["magnitude"] == pytest.approx(2.0 / (1.0 + math.exp(-1.0)), rel=1e-15)

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

    @pytest.mark.parametrize("grid", [
        ["--N", "0"], ["--N", "-3"], ["--L", "-5"], ["--L", "inf"],
        ["--upper-bound", "--ell", "2", "--L", "inf"],
        ["--upper-bound", "--ell", "2", "--mollifier-radius", "inf"],
    ])
    def test_bad_grid_is_domain_error(self, grid, capsys):
        assert run(["fourier", "--p", "1", *grid]).exit_code == 1
        assert "InvalidParams" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", ["1e-300", "1e-3"])
    def test_bound_past_the_grid_is_domain_error(self, radius, tmp_path, capsys):
        """A quotient largest at the last frequency has no supremum on the
        grid: one line on stderr, no report."""
        out = tmp_path / "report.json"
        argv = ["fourier", "--p", "1", "--upper-bound", "--ell", "0",
                "--mollifier-radius", radius, "--json", str(out)]
        assert run(argv).exit_code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: QuadratureDivergence:")
        assert captured.err.count("\n") == 1 and "supremum" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("grid", [
        ["--upper-bound", "--ell", "2", "--mollifier-radius", "1e308"],
    ])
    def test_overflowing_transform_is_domain_error(self, grid, tmp_path, capsys):
        """A grid spacing so large that the transform overflows is refused,
        with no NaN report and no warning (warnings are errors here)."""
        out = tmp_path / "report.json"
        assert run(["fourier", "--p", "1", *grid, "--json", str(out)]).exit_code == 1
        assert "NonFiniteEntry" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("argv", [
        ["--p", "1", "--L", "1e300"],
        ["--p", "2", "--L", "1e200"],
        ["--p", "1", "--L", "1e4"],
        ["--p", "1", "--upper-bound", "--ell", "2", "--L", "1e4"],
        ["--p", "1", "--L", "1e308"],
    ])
    def test_unresolved_frequencies_are_domain_error(self, argv, tmp_path, capsys):
        """omega_max past the grid's Nyquist frequency N / (2L) is refused
        instead of reporting an aliased transform."""
        out = tmp_path / "report.json"
        assert run(["fourier", *argv, "--json", str(out)]).exit_code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParams:") and "Nyquist" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--p", "1"],
        ["--p", "2"],
        ["--p", "0.5", "--L", "700"],
        ["--p", "2", "--upper-bound", "--ell", "2"],
        ["--p", "0.5", "--upper-bound", "--ell", "2", "--L", "700"],
    ])
    def test_default_grids_resolve_their_frequencies(self, argv, capsys):
        """N = 2^16 at L = 40 and at L = 700 has Nyquist frequency 819 and
        46.8, above omega_max 10 (the transform) and 20 (the bound)."""
        assert run(["fourier", *argv]).exit_code == 0
        assert capsys.readouterr().err == ""


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

    def test_witness_search_overflowing_p(self, capsys):
        argv = ["experiment", "witness-search", "--n", "3", "--budget", "400"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*argv, "--p", "inf"]).exit_code == 0
            expected = capsys.readouterr().out
            assert run([*argv, "--p", "1e308"]).exit_code == 0
        out, err = capsys.readouterr()
        assert out == expected
        assert err == ""


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]).exit_code == 2

    def test_missing_source(self, capsys):
        assert run(["magnitude"]).exit_code == 2

    def test_bad_scales(self, k32_spec_json, capsys):
        assert run(["sweep", "--spec", k32_spec_json, "--scales", "nope"]).exit_code == 2

    @pytest.mark.parametrize("grid", ["0:1:3", "-1:1:3", "1:0:3log"])
    def test_nonpositive_scales(self, grid, k32_spec_json, capsys):
        # "--scales=" keeps argparse from reading "-1:1:3" as an option
        assert run(["sweep", "--spec", k32_spec_json, f"--scales={grid}"]).exit_code == 2
        assert "scale grid endpoints must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("grid,message", [
        pytest.param("1:2:0", "scale grid needs at least 1 scale, got 0", id="1:2:0"),
        pytest.param("1:2:-4log", "scale grid needs at least 1 scale, got -4", id="1:2:-4log"),
        pytest.param("0:2:3", "scale grid endpoints must be positive", id="0:2:3"),
    ])
    def test_scale_grid_messages(self, grid, message, k32_spec_json, capsys):
        """A count below 1 has its own message; a bad endpoint keeps its."""
        assert run(["sweep", "--spec", k32_spec_json, f"--scales={grid}"]).exit_code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error" in line] == [
            f"maglab sweep: error: argument --scales: {message}"
        ]

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
            {"family": "interval_net", "params": {"n": 3}, "scale": True},
            {"family": "interval_net", "params": {"n": 3}, "scale": True, "snowflake": True},
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

    def test_parser_keeps_nothing_between_runs(self, two_point_csv, k32_spec_json,
                                               tmp_path, capsys):
        """One parser serves every run; no option or default of one run
        reaches the next."""
        assert build_parser() is build_parser()
        assert run(["magnitude", "--spec", k32_spec_json, "--bogus"]).exit_code == 2
        report = tmp_path / "r.json"
        argv = ["magnitude", "--matrix", two_point_csv, "--json", str(report)]
        assert run(argv).exit_code == 0
        assert json.loads(report.read_text())["magnitude"] > 1.0
        report.unlink()
        capsys.readouterr()
        assert run(["sweep", "--spec", k32_spec_json, "--scales", "1:2:2"]).exit_code == 0
        assert not report.exists()
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == ["t", "lambda_min", "verdict", "magnitude"] and len(out) == 3
        args = build_parser().parse_args(["sweep", "--spec", k32_spec_json, "--scales", "1:2:2"])
        assert (args.matrix, args.json, args.csv) == (None, None, None)
        assert not (args.with_diversity or args.force)

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
    def test_memory_error_is_one_line(self, two_point_csv, monkeypatch, capsys):
        def allocate(space):
            # 2^49 bytes, past the 2^47-byte user address space of x86-64,
            # which no overcommit setting grants: refused at once
            return np.empty(2**46)

        monkeypatch.setattr("maglab.cli.weighting", allocate)
        assert run(["magnitude", "--matrix", two_point_csv]).exit_code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: MemoryError: Unable to allocate 512. TiB")

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


class TestWarningsAsErrors:
    def test_extreme_inputs_exit_cleanly(self, tmp_path, capsys):
        """With every warning raised as an error, extreme inputs still end in
        an exit code: a line gap whose double overflows, and sweeps and scans
        of a sphere net on the split path at scales where the similarities
        round to 1 or underflow to 0.  There the diversity solve warns that
        Z + 11' is singular, which ends in exit 1 and one error line."""
        specs = {}
        for name, scale in (("sphere", 1.0), ("tiny", 1e-300), ("huge", 1e300)):
            spec = SpaceSpec("sphere_fibonacci_net", {"n": 65}, scale=scale)
            assert isinstance(_similarity(generate(spec)), _Fold)
            specs[name] = tmp_path / f"{name}.json"
            specs[name].write_text(spec.to_json())
        argvs = [
            ["approx", "--family", "interval", "--levels", "2,3,5", "--length", "1.7e308"],
            *(["sweep", "--spec", str(specs["sphere"]), "--scales", scales]
              for scales in ("1e-300:1e-3:4log", "1e3:1e300:4log")),
            *(["negtype", "--spec", str(specs[name])] for name in ("sphere", "tiny", "huge")),
            ["sweep", "--spec", str(specs["sphere"]), "--scales", "1e-300:1e-3:4log",
             "--with-diversity"],
        ]
        escaped, codes, errors = [], [], []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for argv in argvs:
                try:
                    codes.append(run(argv).exit_code)
                except Exception as exc:  # the fault under test
                    escaped.append((argv, repr(exc)))
                errors.append(capsys.readouterr().err)
        assert not escaped, escaped
        assert set(codes) <= {0, 1, 2}
        assert codes[-1] == 1
        assert errors[-1].startswith("error: RuntimeWarning: Z + 11' is singular")
        assert errors[-1].count("\n") == 1
