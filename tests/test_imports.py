"""Every name a module imports is used in it.

There is no linter in the toolchain, so this test stands in for one rule of
one: it parses each module with ``ast`` and fails on an imported name that
no expression in the module reads and ``__all__`` does not export.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "funcavg"

# perfbench/tracing.py traces a run by replacing these names in the module's
# namespace, so each must stay imported there even where the module no
# longer calls it.
PERFBENCH_WRAPS = {
    "simharness": {"midrange", "discrete_plugin_average", "resample", "hoeffding_ci",
                   "hoeffding_u_ci", "percentile_ci", "popoviciu_check",
                   "sample_truncated_normal", "sample_bernoulli",
                   "sample_bernoulli_probs", "sample_binomial", "round_to_integers",
                   "ols_fit"},
    "cli": {"midrange", "resample", "hoeffding_ci", "ols_fit", "build_design",
            "standardization_bootstrap_se", "ps_stratified_contrast", "ecdf",
            "sum_symmetry_gap", "mean_midrange_distance", "residual_support_symmetry"},
    "regression": {"ols_fit", "logistic_fit", "build_design", "design_from_columns"},
}


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


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(path):
    unused = set(unused_imports((PACKAGE / path).read_text(encoding="utf-8")))
    assert unused - PERFBENCH_WRAPS.get(path[:-3], set()) == set()
