"""Every name a module imports is used in it, every private function or
class the package defines is read in it, and no module imports scipy when
it is imported.

There is no linter in the toolchain, so these tests stand in for three
rules of one: they parse each module with ``ast`` and fail on an imported
name that no expression in the module reads and ``__all__`` does not
export, on a module-level private function or class that no module of the
package reads (code only tests call belongs in ``tests/``), and on a
``scipy`` import that runs at import time rather than inside a function.
``scipy.special`` alone costs about 0.3 s, which every command, ``--help``
included, would pay.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "funcavg"


def perfbench_wraps() -> dict[str, set[str]]:
    """Module name -> names perfbench/tracing.py's ``_MODULE_WRAPS`` replaces
    in that module's namespace, read from its source with ``ast``.

    The tracer traces a run by replacing these names, so each must stay
    imported in its module even where the module no longer calls it.
    """
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    table = next(node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "_MODULE_WRAPS"
                         for t in node.targets))
    return {module.id: {elt.value for names in layers.values for elt in names.elts}
            for module, layers in zip(table.keys, table.values)}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that nothing in it reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport os.path\nfrom math import pi, tau\n"
              "from .errors import DataError\n__all__ = ['tau']\n"
              "def f(x: np.ndarray):\n    return os.path.join(x)\n")
    assert unused_imports(source) == ["pi", "DataError"]


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level private function or class in
    ``sources`` (module name -> source) that no expression in any of them
    reads, by name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")
            and node.name not in read]


def test_the_check_finds_an_unread_private_definition():
    sources = {"a": ("def _used(): pass\ndef _only_named(): pass\nclass _Unread: pass\n"
                     "def _read_elsewhere(): pass\ndef __getattr__(name): pass\n"
                     "def public(): return _used()\n"),
               "b": ("from . import a\ndef _stored(): pass\nx = a._read_elsewhere\n"
                     "def f():\n    \"Calls :func:`_only_named`.\"\n    _stored = 1\n")}
    assert unread_private_definitions(sources) == ["a._only_named", "a._Unread",
                                                   "b._stored"]


def import_time_scipy_imports(source: str) -> list[int]:
    """Lines of the ``scipy`` imports in ``source`` that run when it is
    imported: every one outside a function body (class bodies run too)."""
    lines = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                modules = [child.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "scipy" for m in modules):
                lines.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return lines


def test_the_check_finds_an_import_time_scipy_import():
    source = ("import scipy\nimport numpy, scipy.special as sp\n"
              "from scipy.special import ndtr\nfrom .scipy import x\n"
              "import scipyx\nif True:\n    from scipy import stats\n"
              "class C:\n    from scipy.special import stdtrit\n"
              "    def m(self):\n        import scipy.linalg\n"
              "def f():\n    from scipy.special import ndtri\n    return ndtri\n")
    assert import_time_scipy_imports(source) == [1, 2, 3, 7, 9]


MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", MODULES)
def test_module_imports_scipy_only_inside_functions(path):
    assert import_time_scipy_imports((PACKAGE / path).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", [name for name in MODULES if name != "__init__.py"])
def test_module_uses_every_name_it_imports(path):
    unused = set(unused_imports((PACKAGE / path).read_text(encoding="utf-8")))
    assert unused - perfbench_wraps().get(path[:-3], set()) == set()


def test_package_reads_every_private_definition():
    sources = {path[:-3]: (PACKAGE / path).read_text(encoding="utf-8") for path in MODULES}
    assert unread_private_definitions(sources) == []


def test_perfbench_wraps_are_read_from_the_tracer():
    wraps = perfbench_wraps()
    assert set(wraps) == {"simharness", "cli", "regression"}
    assert {"resample", "ols_fit", "write_report"} <= wraps["simharness"]
    assert {"ingest_csv", "standardization_bootstrap_se"} <= wraps["cli"]
