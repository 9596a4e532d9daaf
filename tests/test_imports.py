"""Every name a maglab module imports is used in that module, only
`magnitude._similarity` reads a space's structure or tests its symmetry
under reversal, `generate`, the convergence study and the growth-bound
study know a family only by its `FAMILY_TABLE` record, only `cli._write_json`
writes a report and no module calls `json.dump`, and no module imports
scipy when it loads: `import maglab` and `import maglab.cli` load numpy and
the standard library only, each scipy subpackage loads at the first call
that needs it, also when that call runs on a worker, no call loads
scipy.fft, and only a triangle check, sweep or scan with work to share
starts a thread."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "maglab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


STRUCTURE_NAMES = ("isinstance", ".structure", "_Path", "_Fold", ".factors", ".flip")
REVERSAL = "[::-1, ::-1]"  # any subscript that reverses two or more axes


def _reverses_axes(node) -> bool:
    return (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
            and sum(ast.unparse(e) == "::-1" for e in node.slice.elts) > 1)


def _structure_tests(path: Path) -> dict:
    """{name: the top-level definitions that read it} for each name in
    STRUCTURE_NAMES found in `path`, an attribute written with its dot, and
    for REVERSAL, the reversal check's subscript."""
    found = {}
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = "." + node.attr
            elif _reverses_axes(node):
                name = REVERSAL
            else:
                continue
            if name in STRUCTURE_NAMES + (REVERSAL,):
                found.setdefault(name, set()).add(getattr(top, "name", None))
    return found


def test_only_similarity_decides_structure():
    """`_similarity` alone reads a space's structure, with no type test,
    picks its similarity operator and makes the reversal check;
    `_each_scale` gets its blocks, and `scale_sweep` whether a block holds
    Z, from the operator.  Outside `metric_core`, which makes structured
    spaces, no other module reads the structure."""
    found = _structure_tests(SRC / "magnitude.py")
    assert found.pop(".structure") == {"_similarity"}
    assert found.pop(REVERSAL) == {"_similarity"}
    assert found.pop("_Path") <= {"_similarity", "_Path"}
    assert found.pop("_Fold") <= {"_similarity", "_Fold"}
    assert found.pop(".factors") <= {"_similarity"}
    assert found == {}  # no `isinstance` either
    for path in MODULES:
        if path.name != "magnitude.py":
            found = _structure_tests(path)
            assert not {REVERSAL, "_Fold", ".flip"} & set(found), path.name
            if path.name != "metric_core.py":
                assert ".structure" not in found, path.name


def test_structure_test_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from .metric_core import _Structure\n\n\n"
                      "def f(z):\n    return isinstance(z, _Path) or z.factors\n\n\n"
                      "def k(space):\n    return space.structure\n\n\n"
                      "def g(d, v):\n    return (d == d[::-1, ::-1]).all() and v[::-1] and _Fold\n\n\n"
                      "def h(d):\n    return np.flip(d[:, ::-1]) is d[..., ::-1, ::-1]\n")
    assert _structure_tests(module) == {
        "isinstance": {"f"}, "_Path": {"f"}, ".factors": {"f"}, ".structure": {"k"},
        REVERSAL: {"g", "h"}, "_Fold": {"g"}, ".flip": {"h"},
    }


# the functions that learn all they know of a family from its FAMILY_TABLE record
FAMILY_BLIND = {
    "metric_core.py": {"generate"},
    "analysis.py": {"approx_magnitude", "_ambient_gap", "growth_bound_study"},
}


def _is_params(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "params" or (
        isinstance(node, ast.Attribute) and node.attr == "params")


def _family_knowledge(path: Path, names: set) -> list:
    """The source of each comparison with a string and each read of a
    `params` key, by subscript or by method call, in the top-level
    functions `names` of `path`."""
    found = []
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top) if getattr(top, "name", None) in names else ():
            compares_str = isinstance(node, ast.Compare) and any(
                isinstance(c, ast.Constant) and isinstance(c.value, str) for c in ast.walk(node))
            reads_key = isinstance(node, ast.Subscript) and _is_params(node.value) or (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and _is_params(node.func.value))
            if compares_str or reads_key:
                found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("name", sorted(FAMILY_BLIND))
def test_family_code_names_no_family(name):
    assert _family_knowledge(SRC / name, FAMILY_BLIND[name]) == []


def test_family_knowledge_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def generate(spec):\n    if spec.family in ('grid_net',):\n        return spec.params['m']\n"
        "\n\ndef _ambient_gap(coarse, fine):\n    params = fine.provenance.params\n"
        "    return params.get('p', 2.0), 'sphere' != fine\n"
        "\n\ndef other(spec):\n    return spec.family == 'grid_net' or spec.params['m']\n"
    )
    assert _family_knowledge(module, {"generate", "_ambient_gap"}) == [
        "spec.family in ('grid_net',)", "spec.params['m']", "params.get('p', 2.0)",
        "'sphere' != fine",
    ]


REPORT_WRITES = ("json.dump", "json.dumps", ".write_text", "_write_json")


def _report_writes(path: Path) -> list:
    """(top-level definition, call) for each call in `path` of a name in
    REPORT_WRITES, a method written with its dot."""
    found = []
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and ast.unparse(func.value) != "json":
                name = f".{func.attr}"
            else:
                name = ast.unparse(func)
            if name in REPORT_WRITES:
                found.append((getattr(top, "name", None), name))
    return found


def test_one_report_writer():
    # run hands every --json report to _write_json, the one caller of json.dumps
    writes = _report_writes(SRC / "cli.py")
    assert [w for w in writes if w[1] == "_write_json"] == [("run", "_write_json")]
    assert set(writes) == {("run", "_write_json"), ("_write_json", "json.dumps")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_calls_json_dump(path):
    # json.dump takes json's pure-Python encoder, about 2.6 times as slow
    assert all(name != "json.dump" for _, name in _report_writes(path))


def test_report_write_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import json\n"
        "def run(a, r, fh):\n    _write_json(a, r)\n    json.dump(r, fh)\n"
        "    fh.dump(r)\n    json.loads(r)\n"
        "\n\nclass A:\n    def f(self, path):\n        path.write_text(json.dumps(self))\n"
        "\n\nTEXT = json.dumps({})\n"
    )
    assert _report_writes(module) == [
        ("run", "_write_json"), ("run", "json.dump"),
        ("A", ".write_text"), ("A", "json.dumps"), (None, "json.dumps"),
    ]


def _eager_scipy_imports(path: Path) -> list:
    """Line numbers of the scipy imports that run when `path` loads: those
    outside every function body."""
    lines, todo = [], list(ast.parse(path.read_text()).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        lines += [node.lineno for name in names if name.split(".")[0] == "scipy"]
        todo += ast.iter_child_nodes(node)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy_when_it_loads(path):
    assert _eager_scipy_imports(path) == []


def test_eager_scipy_import_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os, scipy.linalg\n"
        "from scipy import special\n"
        "from . import scipy\n"  # a sibling module, not the package
        "if os.name:\n    import scipy.sparse as sp\n"
        "\n\nclass A:\n    from scipy.fft import fft\n"
        "\n    def f(self):\n        import scipy.optimize\n"
        "\n\ndef g():\n    from scipy.special import gamma\n    return gamma\n"
    )
    assert _eager_scipy_imports(module) == [1, 2, 5, 9]


HEAVY = ("scipy.fft", "scipy.sparse", "scipy.optimize", "scipy.integrate")


def _scipy_optimize_imports(path: Path) -> list:
    """Line numbers of the imports of scipy.optimize in `path`, at any depth."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            names = []
        if any(f"{name}.".startswith("scipy.optimize.") for name in names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy_optimize(path):
    assert _scipy_optimize_imports(path) == []


def test_scipy_optimize_import_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import scipy.linalg\n"
        "from scipy import optimize\n"
        "\n\ndef f():\n    import scipy.optimize as so\n"
        "\n\nclass A:\n    def g(self):\n        from scipy.optimize import nnls\n"
        "\n\ndef h():\n    from scipy.optimized import x\n"
    )
    assert _scipy_optimize_imports(module) == [2, 6, 11]


def test_import_loads_no_heavy_scipy_subpackage():
    # the first fourier call imports scipy.special; no call imports these
    code = f"import sys, maglab; print(sorted(m for m in sys.modules if m.startswith({HEAVY!r})))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_a_fourier_call_loads_no_heavy_scipy_subpackage(tmp_path):
    # the blocked chirp-z on two grids (`--p 1`, `--p 0.5 --L 700`)
    spec = tmp_path / "k32.json"
    spec.write_text('{"family": "complete_bipartite", "params": {"m": 3, "n": 2}}')
    code = (
        "import sys, maglab, maglab.cli\n"
        f"maglab.cli.run(['sweep', '--spec', {str(spec)!r}, '--scales', '0.2:0.5:40'])\n"
        "assert maglab.cli.run(['fourier', '--p', '1']).exit_code == 0\n"
        "assert maglab.cli.run(['fourier', '--p', '0.5', '--L', '700']).exit_code == 0\n"
        f"print(sorted(m for m in sys.modules if m.startswith({HEAVY!r})))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_next_fast_len_is_scipys():
    from scipy.fft import next_fast_len

    from maglab.analysis import _next_fast_len

    for k in [*range(1, 20_001), 65_937, 2**20, 2**24 + 12_345]:
        assert _next_fast_len(k) == next_fast_len(k), k


def test_scipy_loads_only_with_the_command_that_needs_it(tmp_path):
    """Importing the CLI loads no scipy module, nor do `validate`, `negtype`
    and both experiments; `magnitude` loads scipy.linalg alone, `diversity`
    on a cloud that takes the nonnegative solve adds no scipy.optimize, and
    `fourier` loads scipy.special; none loads scipy.fft."""
    spec = tmp_path / "k32.json"
    spec.write_text('{"family": "complete_bipartite", "params": {"m": 3, "n": 2}}')
    matrix = tmp_path / "cloud.csv"
    x = np.random.default_rng(0).uniform(0.0, 4.0, size=(30, 2))
    np.savetxt(matrix, np.sqrt(((x[:, None] - x[None]) ** 2).sum(axis=2)), delimiter=",")
    runs = [
        ["validate", str(matrix)],
        ["negtype", "--spec", str(spec)],
        ["experiment", "product-counterexample"],
        ["experiment", "witness-search", "--budget", "50"],
        ["magnitude", "--matrix", str(matrix)],
        ["diversity", "--matrix", str(matrix), "--json", str(tmp_path / "diversity.json")],
        ["fourier", "--p", "1"],
    ]
    code = (
        "import json, sys\n"
        "import maglab.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "states = [loaded()]\n"
        f"for argv in {runs!r}:\n"
        "    assert maglab.cli.run(argv).exit_code == 0, argv\n"
        "    states.append(loaded())\n"
        "print(json.dumps(states))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    *cheap, magnitude, diversity, fourier = map(set, json.loads(out.stdout.splitlines()[-1]))
    assert cheap == [set()] * 5  # the import, then validate, negtype, the experiments
    assert "scipy.linalg" in magnitude
    assert not {"scipy.special", "scipy.fft"} & magnitude
    assert json.loads((tmp_path / "diversity.json").read_text())["iterations"] == 2
    assert not any(m.startswith("scipy.optimize") for m in diversity)
    assert {"scipy.linalg", "scipy.special"} <= fourier
    assert not any(m.startswith("scipy.fft") for m in fourier)


def test_first_solves_on_two_workers_match_a_rerun():
    """A process's first scipy-using call is a sweep whose blocks of scales
    run on two workers at once, so each may reach the first solve's lazy
    scipy imports; its records are those of the same sweep run again."""
    code = (
        "import sys, threading\n"
        "import numpy as np\n"
        "from maglab import SpaceSpec, generate, metric_core, scale_sweep\n"
        "metric_core._cpus = lambda: 2\n"
        "sys.setswitchinterval(1e-6)  # interleave the workers' first imports finely\n"
        "sphere = generate(SpaceSpec('sphere_fibonacci_net', {'n': 100}))\n"
        "ts = np.geomspace(0.5, 16.0, 300)  # three blocks of 104 scales or fewer\n"
        "assert not any(m.startswith('scipy') for m in sys.modules)\n"
        "first = scale_sweep(sphere, ts, with_diversity=True).records\n"
        "assert threading.active_count() == 2  # the pool's one helper\n"
        "again = scale_sweep(sphere, ts, with_diversity=True).records\n"
        "assert all(r.magnitude is not None and r.diversity is not None for r in first)\n"
        "print(list(map(repr, first)) == list(map(repr, again)))\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env, timeout=120)
    assert out.stdout.strip() == "True"


def test_threads_start_only_for_shared_work():
    """Importing the CLI, checking a one-band matrix (n <= 50), sweeping
    one stacked block of scales (the 4,000-scale K_{3,2} sweep, the l_1 grid
    sweep) and scanning one (the 25-point product counterexample, whose Gram
    test leads it) start no thread and load no thread pool.  An 800-point sphere's
    sweep and scan on one BLAS thread, then a 400-point check, start at most
    one thread per CPU beyond the caller, all in the one pool."""
    code = (
        "import os, sys, threading\n"
        "import numpy as np\n"
        "import maglab.cli\n"
        "from maglab import (SpaceSpec, generate, product_counterexample_experiment,\n"
        "                    scale_sweep, stability_scan, validate_metric)\n"
        "counts = [threading.active_count()]\n"
        "def cloud(n):\n"
        "    x = np.random.default_rng(n).uniform(0.0, 4.0, size=(n, 2))\n"
        "    return np.sqrt(((x[:, None] - x[None]) ** 2).sum(axis=2))\n"
        "assert validate_metric(cloud(50)).ok\n"
        "counts.append(threading.active_count())\n"
        "k32 = generate(SpaceSpec('complete_bipartite', {'m': 3, 'n': 2, 'r': 1.0}))\n"
        "scale_sweep(k32, np.linspace(0.2, 0.5, 4000))\n"
        "grid = generate(SpaceSpec('grid_net', {'m': 31, 'n': 2, 'p': 1.0}))\n"
        "scale_sweep(grid, np.geomspace(0.5, 16.0, 6))\n"
        "assert product_counterexample_experiment().classification == 'NotStablyPD'\n"
        "counts.append(threading.active_count())\n"
        "assert 'concurrent.futures.thread' not in sys.modules\n"
        "sphere = generate(SpaceSpec('sphere_fibonacci_net', {'n': 800}))\n"
        "scale_sweep(sphere, np.geomspace(0.5, 16.0, 6))\n"
        "stability_scan(sphere)\n"
        "counts.append(threading.active_count())\n"
        "assert validate_metric(cloud(400)).ok\n"
        "counts.append(threading.active_count())\n"
        "main = threading.main_thread()\n"
        "pools = {t.name.rsplit('_', 1)[0] for t in threading.enumerate() if t is not main}\n"
        "print(*counts, len(pools), len(os.sched_getaffinity(0)))\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    imported, one_band, one_block, swept, shared, pools, cpus = map(int, out.stdout.split())
    assert imported == one_band == one_block == 1
    assert 1 <= swept <= shared <= cpus
    assert (swept > 1) == (cpus > 1) == (pools == 1)


def test_unused_import_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport os.path\n"
                      "import numpy as np\nfrom .errors import A, B\n\nnp.zeros(A)\n")
    assert _unused_imports(module) == ["B", "os"]
