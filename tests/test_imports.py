"""Every name a maglab module imports is used in that module, and importing
maglab loads no scipy subpackage that its setup does not need."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = sorted(
    p for p in (Path(__file__).resolve().parents[1] / "src" / "maglab").glob("*.py")
    if p.name != "__init__.py"
)


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


HEAVY = ("scipy.fft", "scipy.sparse", "scipy.optimize", "scipy.integrate")


def test_import_loads_no_heavy_scipy_subpackage():
    # the NNLS solve imports scipy.optimize when a diversity solve needs it
    code = f"import sys, maglab; print(sorted(m for m in sys.modules if m.startswith({HEAVY!r})))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_only_a_fourier_call_loads_scipy_fft(tmp_path):
    spec = tmp_path / "k32.json"
    spec.write_text('{"family": "complete_bipartite", "params": {"m": 3, "n": 2}}')
    code = (
        "import sys, maglab, maglab.cli\n"
        f"maglab.cli.run(['sweep', '--spec', {str(spec)!r}, '--scales', '0.2:0.5:40'])\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy.fft'))\n"
        "maglab.cli.run(['fourier', '--p', '1'])\n"
        "print(loaded, 'scipy.fft' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip().splitlines()[-1] == "[] True"


def test_unused_import_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport os.path\n"
                      "import numpy as np\nfrom .errors import A, B\n\nnp.zeros(A)\n")
    assert _unused_imports(module) == ["B", "os"]
