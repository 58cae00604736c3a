"""Every name the package and its tests import is used.

No linter ships with the project, so this walks the syntax trees with the
standard library.  A name counts as used when it is read anywhere in the
module (quoted annotations are not read).  `from __future__` imports and the
names a module lists in `__all__` (the package's re-exports) are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "vpfp").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


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
