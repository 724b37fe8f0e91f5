"""The moduli layers are plain arithmetic: symchar and order import no
matrix code, and symchar reads a rep spec tree in one walk. The package,
the CLI and serialize import matrix code only inside the functions that
use it, so importing them loads neither numpy nor scipy. Checked on the
source with ast, and for the moduli layers also on sys.modules in a fresh
interpreter. No module imports dataclasses (kostant._frozen stands in) or
scipy.linalg (kostant.linalg loads scipy's LAPACK extension alone).
Every package export is used by some other part of the package, and every
lazy export names a definition in its module."""

import ast
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

import kostant

PACKAGE = Path(kostant.__file__).parent
FORBIDDEN = ("numpy", "scipy", "kostant.cmjd", "kostant.linalg", "kostant.selfcheck")


def imported_modules(path: Path, eager: bool = False) -> list[str]:
    """Absolute names of every module the file imports, at any depth; with
    eager=True only those that importing the file runs, outside function
    bodies and `if TYPE_CHECKING:` blocks. In ast.walk order."""
    names = []
    todo = deque([ast.parse(path.read_text())])
    while todo:
        node = todo.popleft()
        if eager and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if (eager and isinstance(node, ast.If)
                and ast.unparse(node.test) == "TYPE_CHECKING"):
            todo.extend(node.orelse)
            continue
        todo.extend(ast.iter_child_nodes(node))
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


@pytest.mark.parametrize("module", ["__init__.py", "cli.py", "serialize.py"])
def test_front_modules_import_matrix_code_in_functions_only(module):
    bad = [name for name in imported_modules(PACKAGE / module, eager=True)
           if is_forbidden(name)]
    assert bad == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # its import loads inspect, and each dataclass costs six execs at start-up
    assert "dataclasses" not in imported_modules(path)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy_linalg(path):
    # the package import costs about 0.28 s, most of it scipy's array-API
    # layer; kostant.linalg loads the LAPACK extension alone
    bad = [name for name in imported_modules(path)
           if name == "scipy.linalg" or name.startswith("scipy.linalg.")]
    assert bad == []


@pytest.mark.parametrize("module", ["kostant.order", "kostant.serialize"])
def test_import_loads_no_matrix_code(module):
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=60,
        capture_output=True, text=True, check=True).stdout
    assert module in out.split()
    assert [name for name in out.split() if is_forbidden(name)] == []


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


def test_eager_imports_skip_functions_and_type_checking(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("from typing import TYPE_CHECKING\n"
                      "if TYPE_CHECKING:\n"
                      "    import numpy as np\n"
                      "else:\n"
                      "    from .cmjd import cmjd\n"
                      "class C:\n"
                      "    def f(self):\n"
                      "        from .linalg import mat_norm\n"
                      "def g():\n"
                      "    import scipy\n"
                      "if True:\n"
                      "    from .selfcheck import run_suites\n")
    assert imported_modules(source, eager=True) == [
        "typing", "kostant.cmjd", "kostant.selfcheck"]


def test_one_walk_over_the_spec_tree():
    # every reading of a RepSpec goes through symchar._walk
    raises = [node for node in ast.walk(ast.parse((PACKAGE / "symchar.py").read_text()))
              if isinstance(node, ast.Raise) and "unknown rep spec" in ast.unparse(node)]
    assert len(raises) == 1


# the one export that nothing in the package uses yet: it waits for the
# CMJD check of ROADMAP item 8
UNREACHED_EXPORTS = {"hyperbolic_log"}


def package_exports() -> set[str]:
    """The names __init__ imports from its submodules, and the lazy ones."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    return imported | set(kostant._LAZY)


def names_used(path: Path) -> set[str]:
    """Names the file loads or reads as attributes, except the uses of a
    top-level function or class inside its own definition."""
    used = set()
    for top in ast.parse(path.read_text()).body:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(top)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                 or isinstance(node, ast.Attribute)}
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names.discard(top.name)
        used |= names
    return used


def test_every_export_is_used_in_the_package():
    used = set().union(*(names_used(path) for path in PACKAGE.glob("*.py")
                         if path.name != "__init__.py"))
    assert package_exports() - used <= UNREACHED_EXPORTS


def test_used_names_skip_a_definition_of_its_own(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("def f(n):\n"
                      "    return f(n - 1) + g(n)\n"
                      "def g(n):\n"
                      "    return math.comb(n, 2)\n")
    assert names_used(source) == {"g", "n", "math", "comb"}


def test_lazy_exports_name_their_definitions():
    for name, module in kostant._LAZY.items():
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert name in defined, (name, module)
