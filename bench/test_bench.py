"""Self-tests of the benchmark.  From the repository root:

    python -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from maglab import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_pass_emits_every_metric_with_its_unit(workload, trace, kind):
    done = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench(tmp_path, "--workload", "csv-solve", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_same_seed_builds_identical_inputs(tmp_path):
    for name in workloads.NAMES:
        a = workloads.build(name, 7, tmp_path / name / "a", small=True)
        b = workloads.build(name, 7, tmp_path / name / "b", small=True)
        assert a.input_hash == b.input_hash
        assert [op.name for op in a.ops] == [op.name for op in b.ops]
    c = workloads.build("csv-solve", 8, tmp_path / "c", small=True)
    assert c.input_hash != workloads.build("csv-solve", 7, tmp_path / "d", small=True).input_hash


def _scale(key, factor):
    def perturb(report):
        report[key] = report[key] * factor
    return perturb


def _swap_sweep_magnitudes(report):
    recs = report["records"]
    recs[0]["magnitude"], recs[-1]["magnitude"] = recs[-1]["magnitude"], recs[0]["magnitude"]


def _bump_transform(report):
    report["values"][10] += 1e-5


def _move_threshold(report):
    first = next(i for i, r in enumerate(report["records"]) if r["verdict"] == oracles.PD)
    report["records"][first - 1]["verdict"] = oracles.PD


@pytest.mark.parametrize("workload, op_name, perturb", [
    ("csv-solve", "magnitude:l2-cloud-40", _scale("magnitude", 1 + 1e-7)),
    ("csv-solve", "diversity:l1-grid-36", _scale("diversity", 1 - 1e-6)),
    ("csv-solve", "validate:broken-triangle", _scale("worst_triangle_violation", 0.5)),
    ("spec-sweep", "sweep:l1-grid", _swap_sweep_magnitudes),
    ("spec-sweep", "approx:cantor", lambda r: r["records"][0].update(magnitude=1.5)),
    ("fourier-witness", "fourier:p1", _bump_transform),
    ("fourier-witness", "sweep:k32", _move_threshold),
])
def test_oracle_rejects_a_perturbed_result(tmp_path, workload, op_name, perturb):
    ops = {op.name: op for op in workloads.build(workload, 5, tmp_path, small=True).ops}
    op = ops[op_name]
    path = tmp_path / "report.json"
    exit_code = cli.run([*op.argv, "--json", str(path)]).exit_code
    report = json.loads(path.read_text())
    assert op.judge(workloads.Outcome(exit_code, "", report)) == ([], False)
    perturb(report)
    problems, wrong = op.judge(workloads.Outcome(exit_code, "", report))
    assert problems and wrong


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    import maglab

    modules = tracer.layer_modules()
    sites = [maglab, *modules.values()]
    originals = {id(fn): fn for m in modules.values() for fn in tracer.public_functions(m).values()}
    before = [dict(vars(site)) for site in sites]
    spec = tmp_path / "k32.json"
    spec.write_text(json.dumps({"family": "complete_bipartite",
                                "params": {"m": 3, "n": 2, "r": 1.0}, "seed": 0}))
    t = tracer.Tracer()
    t.install()
    try:
        for site in sites:
            unwrapped = [a for a, obj in vars(site).items() if originals.get(id(obj)) is obj]
            assert unwrapped == [], f"{site.__name__} still binds {unwrapped}"
        cli_before = before[sites.index(modules["cli"])]
        assert modules["cli"].weighting.__wrapped__ is cli_before["weighting"]
        t.op_id = 0
        assert modules["cli"].run(["magnitude", "--spec", str(spec)]).exit_code == 0
    finally:
        t.uninstall()
    after = [dict(vars(site)) for site in sites]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[k] is v for k, v in old.items())

    names = [s[0] for s in t.spans]
    assert names[0] == "cli.run" and t.spans[0][3] == -1
    assert {"metric_core.generate", "magnitude.weighting",
            "magnitude.spectrum_diagnostics", "magnitude.similarity"} <= set(names)
    assert all(s[4] == 0 for s in t.spans)
    # self times partition the root span
    total = sum(self_s for _, self_s in t.function_stats().values())
    assert total == pytest.approx(t.spans[0][2] - t.spans[0][1], rel=1e-9)
    metrics = t.layer_metrics()
    assert metrics["magnitude.weighting.calls"] == (1, "count")
    assert metrics["magnitude.similarity.entries"][0] == 2 * 25


def test_passes_fill_the_run_and_probe_around_each_operation(tmp_path):
    def fake_run(argv):
        time.sleep(0.02)
        return types.SimpleNamespace(exit_code=0)

    probes = iter(range(1, 10_000))
    ops = [workloads.Op(f"op{i}", ("validate", "x.csv")) for i in range(3)]
    start = time.perf_counter()
    passes = run.timed_passes(types.SimpleNamespace(run=fake_run), ops, tmp_path,
                              lambda: float(next(probes)), seconds=0.5)
    elapsed = time.perf_counter() - start
    assert len(passes) >= run.MIN_PASSES
    assert 0.3 < elapsed < 1.0
    # one probe before each pass and one after each operation
    assert [r["probe_s"] for r in passes[0]] == [1.5, 2.5, 3.5]
    assert [r["probe_s"] for r in passes[1]] == [5.5, 6.5, 7.5]
    assert all(r["problems"] == [] for p in passes for r in p)
