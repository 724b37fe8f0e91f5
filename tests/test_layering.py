"""The moduli layers are plain arithmetic: symchar and order import no
matrix code, and symchar reads a rep spec tree in one walk. Checked on the
source, since importing kostant loads cmjd (and with it numpy and scipy)
anyway."""

import ast
from pathlib import Path

import pytest

import kostant

PACKAGE = Path(kostant.__file__).parent
FORBIDDEN = ("numpy", "scipy", "kostant.linalg")


def imported_modules(path: Path) -> list[str]:
    """Absolute names of every module the file imports, at any depth."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = "kostant." if node.level else ""
            if node.module is None:  # from . import x
                names.extend(prefix + alias.name for alias in node.names)
            else:
                names.append(prefix + node.module)
    return names


def is_forbidden(name: str) -> bool:
    return any(name == f or name.startswith(f + ".") for f in FORBIDDEN)


@pytest.mark.parametrize("module", ["symchar.py", "order.py"])
def test_moduli_layers_import_no_matrix_code(module):
    bad = [name for name in imported_modules(PACKAGE / module) if is_forbidden(name)]
    assert bad == []


def test_checker_sees_each_import_form(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("import numpy as np\n"
                      "from scipy.linalg import expm\n"
                      "from .linalg import eigen_spectrum\n"
                      "from . import linalg\n"
                      "def f():\n"
                      "    import scipy\n"
                      "from .symchar import Sym\n")
    flagged = [is_forbidden(name) for name in imported_modules(source)]
    assert flagged == [True, True, True, True, False, True]


def test_one_walk_over_the_spec_tree():
    # every reading of a RepSpec goes through symchar._walk
    raises = [node for node in ast.walk(ast.parse((PACKAGE / "symchar.py").read_text()))
              if isinstance(node, ast.Raise) and "unknown rep spec" in ast.unparse(node)]
    assert len(raises) == 1
