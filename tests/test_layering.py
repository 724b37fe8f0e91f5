"""The moduli layers are plain arithmetic: symchar and order import no
matrix code, and symchar reads a rep spec tree in one walk. The package,
the CLI and serialize import matrix code only inside the functions that
use it, so importing them loads neither numpy nor scipy. Checked on the
source with ast, and for the moduli layers also on sys.modules in a fresh
interpreter. serialize never imports linalg, so an exact comparison of
matrices that supply their eigenvalues loads neither linalg nor scipy's
LAPACK extension. The CLI imports no private name of another module. No
module imports dataclasses (kostant._frozen stands in) or
scipy.linalg (kostant.linalg loads scipy's LAPACK extension alone), and
none but cmjd's independent check calls an eigensolver.
Every package export is used by some other part of the package, and every
lazy export names a definition in its module."""

import ast
import json
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


def test_serialize_never_imports_linalg():
    # supplied eigenvalues become moduli where they are parsed; no function
    # of serialize needs the matrix kernels either
    assert "kostant.linalg" not in imported_modules(PACKAGE / "serialize.py")


def test_exact_order_on_supplied_eigenvalues_loads_no_linalg(tmp_path):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"entries": [[2, 1], [0, "1/2"]],
                             "eigenvalues": [{"re": "6/5", "im": "8/5"}, "1/2"]}))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from kostant.cli import main\n"
         f"code = main(['order', '--exact', '--g1', {str(g)!r}, '--g2', {str(g)!r}, "
         f"'--out', {str(tmp_path / 'report.json')!r}])\n"
         "print(code, *sys.modules)\n"],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=60,
        capture_output=True, text=True, check=True).stdout.split()
    assert out[0] == "0"
    assert json.loads((tmp_path / "report.json").read_text())["moduli_1"] == ["2", "1/2"]
    assert "kostant.linalg" not in out
    assert [name for name in out if name.endswith("_flapack")] == []


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


EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh"}


def eigensolver_calls(path: Path) -> list[str]:
    """The eigensolvers the file calls, as f(...) or m.f(...)."""
    calls = [node.func for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)]
    names = [f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
             for f in calls]
    return [name for name in names if name in EIGENSOLVERS]


# every spectrum is read off linalg.spectral_projectors' Schur form;
# cmjd's eigvals is validate_cmjd's independent check of that kernel
@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "cmjd.py"}),
                         ids=lambda p: p.name)
def test_one_spectral_kernel(path):
    assert eigensolver_calls(path) == []


def test_eigensolver_checker_sees_each_call_form(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("np.linalg.eigvals(a)\n"
                      "eig(a)\n"
                      "scipy.linalg.eigh(a)\n"
                      "np.linalg.eigvalsh(a)\n"
                      "x.eigenvalues(a)\n"
                      "f = np.linalg.eig\n")
    assert eigensolver_calls(source) == ["eigvals", "eig", "eigh", "eigvalsh"]


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


def private_imports(path: Path) -> list[str]:
    """Each import of an underscore-prefixed name from a kostant module,
    as "from module import name"."""
    return [f"from {'.' * node.level}{node.module or ''} import {alias.name}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "kostant")
            for alias in node.names if alias.name.startswith("_")]


def test_cli_imports_no_private_name():
    # the CLI loads, calls and serializes; every decision stays behind the
    # public names of the module that makes it
    assert private_imports(PACKAGE / "cli.py") == []


def test_private_import_checker(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("from .order import GEQ, _LogRatio\n"
                      "from ._frozen import frozen\n"
                      "from kostant.symchar import _h_scan\n"
                      "from os import _exit\n"
                      "def f():\n"
                      "    from . import _frozen\n")
    assert private_imports(source) == [
        "from .order import _LogRatio", "from kostant.symchar import _h_scan",
        "from . import _frozen"]


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
