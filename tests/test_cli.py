import json
import math
import warnings

import numpy as np
import pytest

from maglab import SpaceSpec, generate
from maglab.cli import run


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
