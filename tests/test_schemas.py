"""CLI --json reports checked against their versioned schemas in docs/schemas."""

import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from referencing import Registry, Resource

from maglab import SpaceSpec, generate
from maglab.cli import run

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


def emit(tmp_path, space, *argv) -> dict:
    matrix = tmp_path / "space.csv"
    np.savetxt(matrix, space.dist, delimiter=",", fmt="%.17g")
    out = tmp_path / "report.json"
    result = run([argv[0], "--matrix", str(matrix), *argv[1:], "--json", str(out)])
    assert result.exit_code == 0
    return json.loads(out.read_text())


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
    out = tmp_path / "study.json"
    argv = ["approx", "--family", "interval", "--levels", "3,5,9", "--json", str(out)]
    assert run(argv).exit_code == 0
    validator(registry, "convergence_study").validate(json.loads(out.read_text()))


def test_space_spec(registry):
    spec = SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 1.0})
    validator(registry, "space_spec").validate(json.loads(spec.to_json()))
    # the schema's stated seed default is what SpaceSpec reads a null seed as
    seed = registry.contents("maglab/space_spec/v1")["properties"]["seed"]
    assert seed["default"] == SpaceSpec(spec.family, spec.params, seed=None).seed
