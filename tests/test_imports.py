"""What the package, its tests and its demos import.

Every name the package and its tests import is used.  No linter ships with
the project, so this walks the syntax trees with the standard library.  A
name counts as used when it is read anywhere in the module (quoted
annotations are not read).  `from __future__` imports and the names a module
lists in `__all__` (the package's re-exports) are exempt.

Importing the package and running its echo and landau campaigns loads
none of scipy's heavy subpackages (only the power-law fits import
scipy.stats), and every demo compiles and imports only names the package
has.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "vpfp").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# scipy subpackages that cost most of a second to import and that only the
# power-law fits (scipy.stats) reach
HEAVY_SCIPY = ("scipy.stats", "scipy.optimize", "scipy.linalg",
               "scipy.interpolate", "scipy.integrate", "scipy.sparse")


def _all_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return {c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return set()


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _all_names(tree)
    return [(line, name) for line, name in bound if name not in used]


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, ", ".join(f"line {line}: {name}" for line, name in unused)


def test_checker_flags_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom math import pi, tau\n"
              "from .grids import PhaseGrid\n"
              "__all__ = ['PhaseGrid']\n"
              "def f(x: np.ndarray):\n    return tau\n")
    assert unused_imports(source) == [(2, "os"), (4, "pi")]


def test_campaigns_load_no_heavy_scipy_module():
    code = (
        "import sys\n"
        "import vpfp\n"
        "from vpfp.experiments import run_experiment\n"
        "from vpfp.io_config import RunConfig\n"
        "run_experiment('echo', RunConfig(nu_list=(1e-3,), echo_eta_star=8.0))\n"
        "run_experiment('landau', RunConfig(nu_list=(1e-3,)))\n"
        "print('\\n'.join(sorted(sys.modules)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    loaded = out.stdout.split()
    assert "vpfp.experiments" in loaded
    heavy = [m for m in loaded
             if any(m == h or m.startswith(h + ".") for h in HEAVY_SCIPY)]
    assert heavy == []


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_compiles_and_its_vpfp_names_exist(path):
    source = path.read_text()
    compile(source, str(path), "exec")
    tree = ast.parse(source)
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(a.name, None) for a in node.names
                      if a.name.split(".")[0] == "vpfp"]
        elif (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "vpfp"):
            names += [(node.module, a.name) for a in node.names]
    assert names, f"{path.name} imports nothing from vpfp"
    for module, name in names:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{module}.{name}"
