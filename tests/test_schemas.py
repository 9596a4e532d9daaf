"""Every CLI subcommand's --json report checked against its schema in docs/schemas."""

import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from referencing import Registry, Resource

from maglab import SpaceSpec, generate
from maglab.cli import build_parser, run
from maglab.metric_core import FAMILY_TABLE

SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas"


@pytest.fixture(scope="module")
def registry() -> Registry:
    resources = []
    for path in sorted(SCHEMAS.glob("*.schema.json")):
        schema = json.loads(path.read_text())
        jsonschema.Draft7Validator.check_schema(schema)
        resources.append((schema["$id"], Resource.from_contents(schema)))
    return Registry().with_resources(resources)


def validator(registry: Registry, name: str) -> jsonschema.Draft7Validator:
    schema = registry.contents(f"maglab/{name}/v1")
    return jsonschema.Draft7Validator(schema, registry=registry)


def run_json(tmp_path, *argv, exit_code=0) -> dict:
    out = tmp_path / "report.json"
    assert run([*argv, "--json", str(out)]).exit_code == exit_code
    return json.loads(out.read_text())


def emit(tmp_path, space, *argv) -> dict:
    matrix = tmp_path / "space.csv"
    np.savetxt(matrix, space.dist, delimiter=",", fmt="%.17g")
    return run_json(tmp_path, argv[0], "--matrix", str(matrix), *argv[1:])


SPACES = {
    "l1-grid": SpaceSpec("grid_net", {"m": 6, "n": 2, "p": 1.0}),
    # not positively weighted: its diversity takes the NNLS path
    "cloud": SpaceSpec("point_cloud_lp", {"points": np.random.default_rng(6).uniform(
        0, 1, size=(5, 2)).tolist(), "p": 1.0}),
    "k32-threshold": SpaceSpec(
        "complete_bipartite", {"m": 3, "n": 2, "r": math.log(math.sqrt(2.0))}
    ),
}


@pytest.mark.parametrize("label", sorted(SPACES))
def test_diversity_report(label, registry, tmp_path, capsys):
    report = emit(tmp_path, generate(SPACES[label]), "diversity")
    validator(registry, "diversity_report").validate(report)


@pytest.mark.parametrize("label", ["l1-grid", "cloud"])
def test_magnitude_report(label, registry, tmp_path, capsys):
    report = emit(tmp_path, generate(SPACES[label]), "magnitude")
    check = validator(registry, "magnitude_report")
    check.validate(report)
    # the nested diagnostics resolve through $ref and are checked too
    report["diagnostics"]["verdict"] = "Unknown"
    with pytest.raises(jsonschema.ValidationError):
        check.validate(report)


def test_sweep_report(registry, tmp_path, capsys):
    report = emit(
        tmp_path, generate(SPACES["k32-threshold"]), "sweep",
        "--scales", "0.25:1:4log", "--with-diversity",
    )
    validator(registry, "scale_sweep").validate(report)


def test_stability_report(registry, tmp_path, capsys):
    report = emit(tmp_path, generate(SpaceSpec("complete_bipartite", {
        "m": 3, "n": 2, "r": 1.0})), "negtype")
    validator(registry, "stability_report").validate(report)


def test_convergence_study(registry, tmp_path, capsys):
    report = run_json(tmp_path, "approx", "--family", "interval", "--levels", "3,5,9")
    validator(registry, "convergence_study").validate(report)


@pytest.mark.parametrize("dist,exit_code", [
    ([[0, 1], [1, 0]], 0),
    ([[0, 1, 3], [1, 0, 1], [3, 1, 0]], 1),  # a triangle violation
])
def test_validate_report(dist, exit_code, registry, tmp_path, capsys):
    matrix = tmp_path / "dist.csv"
    np.savetxt(matrix, dist, delimiter=",")
    report = run_json(tmp_path, "validate", str(matrix), exit_code=exit_code)
    validator(registry, "validate_report").validate(report)
    assert len(report["offending_triples"]) == exit_code


@pytest.mark.parametrize("argv,schema", [
    (["fourier", "--p", "1.5"], "fourier_report"),
    (["fourier", "--p", "2", "--upper-bound", "--ell", "2"], "fourier_upper_bound"),
    (["experiment", "product-counterexample"], "stability_report"),
])
def test_spaceless_reports(argv, schema, registry, tmp_path, capsys):
    validator(registry, schema).validate(run_json(tmp_path, *argv))


@pytest.mark.parametrize("argv,schema", [
    (["sweep", "--scales", "0.2:0.5:400"], "scale_sweep"),
    (["magnitude"], "magnitude_report"),
    (["fourier", "--p", "1.5"], "fourier_report"),
    (["fourier", "--p", "2", "--upper-bound", "--ell", "2"], "fourier_upper_bound"),
])
def test_json_is_compact(argv, schema, registry, tmp_path, capsys):
    """--json is one line, json.dumps's compact text of the object it holds."""
    if argv[0] != "fourier":
        spec = tmp_path / "k32.json"
        spec.write_text(SpaceSpec("complete_bipartite", {"m": 3, "n": 2}).to_json())
        argv = [argv[0], "--spec", str(spec), *argv[1:]]
    out = tmp_path / "report.json"
    assert run([*argv, "--json", str(out)]).exit_code == 0
    text = out.read_text()
    report = json.loads(text)
    assert text == json.dumps(report) + "\n"
    assert text.count("\n") == 1
    validator(registry, schema).validate(report)


# seed 0 finds an l_inf witness at its 301st subset
@pytest.mark.parametrize("p,budget,found", [("inf", "400", True), ("2", "5", False)])
def test_witness_search(p, budget, found, registry, tmp_path, capsys):
    argv = ["experiment", "witness-search", "--p", p, "--budget", budget]
    report = run_json(tmp_path, *argv)
    validator(registry, "witness_search").validate(report)
    assert report["found"] is found


def test_space_spec(registry):
    spec = SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 1.0})
    validator(registry, "space_spec").validate(json.loads(spec.to_json()))
    # the schema's stated seed default is what SpaceSpec reads a null seed as
    seed = registry.contents("maglab/space_spec/v1")["properties"]["seed"]
    assert seed["default"] == SpaceSpec(spec.family, spec.params, seed=None).seed


def test_space_spec_families(registry):
    family = registry.contents("maglab/space_spec/v1")["properties"]["family"]
    assert sorted(family["enum"]) == sorted(FAMILY_TABLE)


# The fields whose --json value may be the non-strict token Infinity or
# -Infinity today, by subcommand.  The v2 schemas give each a finite value or
# null; until then the list may shrink but not grow.
NONFINITE_TODAY = {("validate", "worst_asymmetry")}


def _strict(token):
    raise ValueError(f"non-strict JSON constant {token}")


def _nonfinite_paths(node, path="") -> set:
    """Paths ("records[].field") of the values parsed from a non-finite token."""
    if isinstance(node, dict):
        return set().union(*(_nonfinite_paths(v, f"{path}.{k}".lstrip(".")) for k, v in
                             node.items()))
    if isinstance(node, list):
        return set().union(*(_nonfinite_paths(v, f"{path}[]") for v in node))
    return {path} if isinstance(node, float) and not math.isfinite(node) else set()


def test_json_is_strict_but_for_known_fields(tmp_path, capsys):
    """Every subcommand's --json on ordinary inputs, and `validate` on a
    matrix whose asymmetry overflows, parses with parse_constant set to
    raise, except for the fields in NONFINITE_TODAY, each of which the
    corpus shows holding inf."""
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
    corpus = [
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
    seen = set()
    out = tmp_path / "report.json"
    for argv, exit_code in corpus:
        assert run([*argv, "--json", str(out)]).exit_code == exit_code, argv
        text = out.read_text()
        paths = _nonfinite_paths(json.loads(text))
        assert {(argv[0], path) for path in paths} <= NONFINITE_TODAY, argv
        seen |= {(argv[0], path) for path in paths}
        if not paths:
            json.loads(text, parse_constant=_strict)
        else:
            with pytest.raises(ValueError, match="non-strict"):
                json.loads(text, parse_constant=_strict)
    assert seen == NONFINITE_TODAY
    commands = next(a.choices for a in build_parser()._actions if isinstance(a.choices, dict))
    assert {argv[0] for argv, _ in corpus} == set(commands)
